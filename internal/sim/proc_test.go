package sim

import "testing"

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(7)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the proc's own panic value", r)
		}
		if e.Now() != 7 {
			t.Fatalf("clock = %d at the panic, want 7", e.Now())
		}
	}()
	e.Run()
	t.Fatal("Run returned despite the proc panicking")
}

// victim spawns a proc that records when its deferred cleanup ran and
// whether it ever got past its first sleep.
func victim(e *Engine, cleanup *Time, resumed *bool) *Proc {
	*cleanup = -1
	return e.Spawn("victim", func(p *Proc) {
		defer func() { *cleanup = e.Now() }()
		p.Sleep(100)
		*resumed = true
	})
}

func TestKillFromAnotherProc(t *testing.T) {
	e := NewEngine(1)
	var cleanup Time
	var resumed bool
	v := victim(e, &cleanup, &resumed)
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		v.Kill()
		if cleanup != 10 || !v.Done() || !v.Killed() {
			t.Errorf("kill not synchronous: cleanup=%d done=%v killed=%v", cleanup, v.Done(), v.Killed())
		}
		if e.Cur() != p {
			t.Errorf("Cur() after Kill = %v, want the killer", e.Cur())
		}
		p.Sleep(200)
	})
	e.Run()
	if resumed {
		t.Fatal("killed proc resumed")
	}
}

func TestKillFromEventContext(t *testing.T) {
	e := NewEngine(1)
	var cleanup Time
	var resumed bool
	v := victim(e, &cleanup, &resumed)
	e.Schedule(10, func() {
		v.Kill()
		if cleanup != 10 || !v.Done() || !v.Killed() {
			t.Errorf("kill not synchronous: cleanup=%d done=%v killed=%v", cleanup, v.Done(), v.Killed())
		}
		if e.Cur() != nil {
			t.Errorf("Cur() after Kill = %v, want nil in event context", e.Cur())
		}
	})
	e.Run()
	if resumed {
		t.Fatal("killed proc resumed")
	}
}

func TestKillBeforeFirstResume(t *testing.T) {
	e := NewEngine(1)
	ran := false
	v := e.Spawn("stillborn", func(p *Proc) { ran = true })
	v.Kill()
	e.Run()
	if ran {
		t.Fatal("body of a proc killed before its first resume ran")
	}
	if !v.Done() || !v.Killed() {
		t.Fatalf("done=%v killed=%v, want both", v.Done(), v.Killed())
	}
}

func TestKillWhileInWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	w1Woke := false
	var w2At Time = -1
	w1 := e.Spawn("w1", func(p *Proc) {
		c.WaitTimeout(p, 50)
		w1Woke = true
	})
	e.Spawn("w2", func(p *Proc) {
		if c.WaitTimeout(p, 1000) {
			w2At = e.Now()
		}
	})
	e.Schedule(10, func() {
		w1.Kill()
		if c.Waiters() != 1 {
			t.Errorf("waiters after kill = %d, want 1", c.Waiters())
		}
	})
	// w1's timeout (t=50) has passed by now: the signal must reach w2.
	e.Schedule(100, func() {
		if !c.Signal() {
			t.Error("Signal found no waiter")
		}
	})
	e.Run()
	if w1Woke {
		t.Fatal("timeout resumed the killed waiter")
	}
	if w2At != 100 {
		t.Fatalf("w2 woke at %d, want 100 by the signal", w2At)
	}
}

func TestKillRunningProcPanics(t *testing.T) {
	e := NewEngine(1)
	var got any
	p := e.Spawn("self", func(p *Proc) {
		defer func() { got = recover() }()
		p.Kill()
	})
	e.Run()
	if got != "sim: Kill of the running proc" {
		t.Fatalf("recovered %v, want the running-proc kill panic", got)
	}
	if p.Killed() {
		t.Fatal("running proc marked killed")
	}
}

func TestShutdownKillsEveryParkedProc(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	finished := e.Spawn("finished", func(p *Proc) {})
	waiter := e.Spawn("waiter", func(p *Proc) { c.Wait(p) })
	sleeper := e.Spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
	e.RunUntil(10)
	unstarted := e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	e.Shutdown()
	for _, p := range []*Proc{waiter, sleeper, unstarted} {
		if !p.Done() || !p.Killed() {
			t.Fatalf("%s: done=%v killed=%v after Shutdown", p.Name(), p.Done(), p.Killed())
		}
	}
	if finished.Killed() {
		t.Fatal("Shutdown marked a finished proc killed")
	}
	if c.Waiters() != 0 {
		t.Fatalf("waiters after Shutdown = %d, want 0", c.Waiters())
	}
	e.Run() // the sleeper's and unstarted proc's wakeups find corpses
}
