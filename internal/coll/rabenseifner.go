package coll

import (
	"fmt"

	"virtnet/internal/sim"
)

// Rabenseifner's allreduce: recursive-halving reduce-scatter followed by
// recursive-doubling allgather. Each of the log2(n) halving rounds
// exchanges half of the surviving range with a partner at half the
// previous distance, so the total data moved is len/2 + len/4 + … ≈ len per
// pass — the ring's 2·len total, but in 2·log2(n) steps instead of
// 2·(n-1).
//
// Non-power-of-two sizes fold first: with rem = n - 2^⌊log2 n⌋, each odd
// rank below 2·rem sends its vector to the even rank beneath it and sits
// out the core algorithm; the folded even ranks take contiguous new ranks.
// After the allgather the even ranks forward the finished vector back to
// their partners.
func rabAllreduce(p *sim.Proc, t Transport, vec []float64, op Op) ([]float64, error) {
	n := t.Size()
	rank := t.Rank()
	res := append([]float64(nil), vec...)
	if n == 1 {
		return res, nil
	}

	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	// Fold phase: rank pairs (2i, 2i+1) for i < rem merge onto the even rank.
	newrank := -1
	switch {
	case rank < 2*rem && rank%2 == 1:
		if err := t.Send(p, rank-1, tagRab, encode(res)); err != nil {
			return nil, fmt.Errorf("coll: rabenseifner fold: %w", err)
		}
	case rank < 2*rem:
		raw, err := t.Recv(p, rank+1, tagRab)
		if err != nil {
			return nil, fmt.Errorf("coll: rabenseifner fold: %w", err)
		}
		reduceBytes(res, raw, op)
		release(t, raw)
		newrank = rank / 2
	default:
		newrank = rank - rem
	}
	// real maps a new rank back to its cluster rank.
	real := func(nr int) int {
		if nr < rem {
			return nr * 2
		}
		return nr + rem
	}

	type span struct{ lo, hi int }
	var kept []span
	if newrank >= 0 {
		// Recursive-halving reduce-scatter. Partners at each round share the
		// same surviving range, so both compute identical midpoints.
		lo, hi := 0, len(res)
		round := 1
		for d := pof2 >> 1; d >= 1; d >>= 1 {
			partner := real(newrank ^ d)
			mid := lo + (hi-lo)/2
			keepLo, keepHi := lo, mid
			sendLo, sendHi := mid, hi
			if newrank&d != 0 {
				keepLo, keepHi = mid, hi
				sendLo, sendHi = lo, mid
			}
			if err := t.Send(p, partner, tagRab+round, encode(res[sendLo:sendHi])); err != nil {
				return nil, fmt.Errorf("coll: rabenseifner halving round %d: %w", round, err)
			}
			raw, err := t.Recv(p, partner, tagRab+round)
			if err != nil {
				return nil, fmt.Errorf("coll: rabenseifner halving round %d: %w", round, err)
			}
			reduceBytes(res[keepLo:keepHi], raw, op)
			release(t, raw)
			kept = append(kept, span{lo, hi})
			lo, hi = keepLo, keepHi
			round++
		}
		// Recursive-doubling allgather: unwind the rounds, sending the owned
		// range and receiving the partner's complement of the parent span.
		for i := len(kept) - 1; i >= 0; i-- {
			parent := kept[i]
			dist := 1 << uint(len(kept)-1-i)
			partner := real(newrank ^ dist)
			if err := t.Send(p, partner, tagRab+64+i, encode(res[lo:hi])); err != nil {
				return nil, fmt.Errorf("coll: rabenseifner doubling round %d: %w", i, err)
			}
			raw, err := t.Recv(p, partner, tagRab+64+i)
			if err != nil {
				return nil, fmt.Errorf("coll: rabenseifner doubling round %d: %w", i, err)
			}
			mid := parent.lo + (parent.hi-parent.lo)/2
			if lo == parent.lo {
				decodeInto(res[mid:parent.hi], raw)
			} else {
				decodeInto(res[parent.lo:mid], raw)
			}
			release(t, raw)
			lo, hi = parent.lo, parent.hi
		}
	}

	// Unfold: even ranks below 2·rem forward the finished vector to the odd
	// partner that sat out.
	if rank < 2*rem {
		if rank%2 == 0 {
			if err := t.Send(p, rank+1, tagRab+128, encode(res)); err != nil {
				return nil, fmt.Errorf("coll: rabenseifner unfold: %w", err)
			}
		} else {
			raw, err := t.Recv(p, rank-1, tagRab+128)
			if err != nil {
				return nil, fmt.Errorf("coll: rabenseifner unfold: %w", err)
			}
			decodeInto(res, raw)
			release(t, raw)
		}
	}
	return res, nil
}
