package hostos

import (
	"strings"
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/obs"
)

func TestShardedClusterWiring(t *testing.T) {
	cfg := DefaultClusterConfig()
	c := NewShardedCluster(1, 40, 4, cfg)
	defer c.Shutdown()
	if c.Shards() != 4 || c.Coord == nil || c.Fab == nil {
		t.Fatalf("sharded cluster not sharded: shards=%d", c.Shards())
	}
	if c.E != c.Coord.Engine(0) || c.Net != c.Fab.Shard(0) {
		t.Fatalf("E/Net must alias shard 0")
	}
	for i, n := range c.Nodes {
		sh := c.Fab.ShardOf(netsim.NodeID(i))
		if n.E != c.Coord.Engine(sh) {
			t.Fatalf("node %d engine is not its shard's (%d)", i, sh)
		}
		if c.EngineFor(netsim.NodeID(i)) != n.E {
			t.Fatalf("EngineFor(%d) mismatch", i)
		}
		if c.NetFor(netsim.NodeID(i)) != c.Fab.Shard(sh) {
			t.Fatalf("NetFor(%d) mismatch", i)
		}
	}
	// Same-leaf hosts always share a shard (leaf-aligned assignment).
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if c.Net.SameLeaf(netsim.NodeID(i), netsim.NodeID(j)) &&
				c.Fab.ShardOf(netsim.NodeID(i)) != c.Fab.ShardOf(netsim.NodeID(j)) {
				t.Fatalf("same-leaf hosts %d,%d on different shards", i, j)
			}
		}
	}
}

func TestSingleShardClusterAliasesShardZero(t *testing.T) {
	c := NewShardedCluster(1, 10, 1, DefaultClusterConfig())
	defer c.Shutdown()
	if c.Shards() != 1 || c.Coord == nil || c.Fab == nil {
		t.Fatalf("1-shard cluster must run on a 1-shard coordinator and fabric: shards=%d", c.Shards())
	}
	if c.E != c.Coord.Engine(0) || c.Net != c.Fab.Shard(0) {
		t.Fatalf("E/Net must alias shard 0")
	}
	if c.ShardEngine(0) != c.E || c.ShardNet(0) != c.Net {
		t.Fatalf("shard 0 accessors must alias E/Net")
	}
}

func TestShardedObsMergesRegistries(t *testing.T) {
	c := NewShardedCluster(1, 20, 2, DefaultClusterConfig())
	defer c.Shutdown()
	o := c.EnableObs(obs.Options{})
	if o == nil || c.Obs() != o || c.ShardObs(0) != o {
		t.Fatalf("EnableObs must return shard 0's layer")
	}
	if c.ShardObs(1) == nil || c.ShardObs(1) == o {
		t.Fatalf("shard 1 must get its own layer")
	}
	c.RunFor(1e6)
	snap := c.MergedSnapshot()
	perShard := map[string]bool{}
	for _, kv := range snap.Vals {
		perShard[kv.Name] = true
	}
	// Every node's NI counters must appear exactly once in the merged
	// stream, whichever shard registry they registered with.
	for i := 0; i < 20; i++ {
		found := false
		for name := range perShard {
			if strings.HasPrefix(name, "nic.n"+itoa(i)+".") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("merged snapshot missing node %d NI counters", i)
		}
	}
	// Fabric aggregates ride on shard 0 only.
	if !perShard["net.sent"] {
		t.Fatalf("merged snapshot missing fabric aggregate net.sent")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
