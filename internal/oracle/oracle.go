// Package oracle states what the observer of a small program may load,
// independently of the checker: it imports only the standard library and
// progir, and shares no code with memmodel, decision or core. It writes the
// paper's failure model as choices filtered by constraints, in the manner of
// "Memory Consistency Models using Constraints":
//
//   - each writer picks a crash point: the prefix of its ops that took
//     effect, all of them when it survives;
//   - each writer keeps, of its stores that took effect, a persisted prefix
//     per cache line, no shorter than the stores before its last flush of
//     the line that took effect (a survivor keeps every store);
//   - the observer loads, per cell, the latest kept store in some merge of
//     the writers' programs — in which a writer's ops after a Join come
//     after every op of the machine it waits for — or 0.
//
// A thread's stores and flushes take effect in program order here (TSO's
// store buffer drains in order, clflush drains with it, and FlushOpt carries
// its own SFence), so a crash point is a prefix, and fences, which order no
// other machine, change nothing.
package oracle

import (
	"fmt"

	"repro/internal/progir"
)

// Outcomes returns p's outcomes: each sequence of values its observer may
// load, in load order, keyed as fmt.Sprint prints the []uint64. A program
// outside the oracle's scope is an error, never a wrong set: each worker
// machine must run one thread of 8-byte Stores, Flushes, FlushOpts,
// SFences, MFences and Joins of lower-numbered machines.
func Outcomes(p *progir.Program) (map[string]bool, error) {
	if err := inScope(p); err != nil {
		return nil, err
	}
	out, observe := map[string]bool{}, p.Observed()
	// events[m] is what writer m's choices leave for the merge: its kept
	// stores and its Joins.
	events := make([][]progir.Op, len(p.Machines))
	var choose func(m int)
	choose = func(m int) {
		if m == len(events) {
			merge(events, make([]int, m), make([]uint64, p.Cells), func(mem []uint64) {
				var vals []uint64
				for _, c := range observe {
					vals = append(vals, mem[c])
				}
				out[fmt.Sprint(vals)] = true
			})
			return
		}
		ops := p.Machines[m][0]
		for crash := range len(ops) + 1 {
			for keep := range 1 << crash {
				if !persisted(p, ops[:crash], keep) {
					continue
				}
				events[m] = events[m][:0]
				for i, op := range ops[:crash] {
					if op.Code == progir.Join || keep&(1<<i) != 0 {
						events[m] = append(events[m], op)
					}
				}
				choose(m + 1)
			}
		}
	}
	choose(0)
	return out, nil
}

// persisted reports whether keep, a set of the ops that took effect, is a
// persisted prefix per line: it holds only stores, and a store it leaves
// out is followed on its line by no flush and no kept store.
func persisted(p *progir.Program, ops []progir.Op, keep int) bool {
	for i, op := range ops {
		switch kept := keep&(1<<i) != 0; {
		case kept && op.Code != progir.Store:
			return false
		case kept || op.Code != progir.Store:
			continue
		}
		for j := i + 1; j < len(ops); j++ {
			if later := ops[j]; p.Line(later.Cell) == p.Line(op.Cell) &&
				(later.Code == progir.Flush || later.Code == progir.FlushOpt || keep&(1<<j) != 0) {
				return false
			}
		}
	}
	return true
}

// merge calls done with the memory each merge of the writers' events
// leaves, a Join waiting until the machine it names has no events left.
func merge(events [][]progir.Op, pos []int, mem []uint64, done func([]uint64)) {
	moved := false
	for m, ev := range events {
		if pos[m] == len(ev) {
			continue
		}
		op := ev[pos[m]]
		if op.Code == progir.Join && pos[op.Machine] < len(events[op.Machine]) {
			continue
		}
		next := mem
		if op.Code == progir.Store {
			next = append([]uint64(nil), mem...)
			next[op.Cell] = op.Val
		}
		pos[m]++
		merge(events, pos, next, done)
		pos[m]--
		moved = true
	}
	if !moved {
		done(mem)
	}
}

func inScope(p *progir.Program) error {
	switch {
	case p.Pattern || p.Mutex:
		return fmt.Errorf("oracle: a pattern or a mutex is outside the scope")
	case p.Lines != nil && len(p.Lines) != p.Cells:
		return fmt.Errorf("oracle: %d lines for %d cells", len(p.Lines), p.Cells)
	}
	for _, c := range p.Observe {
		if c < 0 || c >= p.Cells {
			return fmt.Errorf("oracle: the observer loads cell %d of %d", c, p.Cells)
		}
	}
	for m, threads := range p.Machines {
		if len(threads) != 1 {
			return fmt.Errorf("oracle: machine %d runs %d threads, not one", m, len(threads))
		}
		for i, op := range threads[0] {
			ok := op.Code == progir.SFence || op.Code == progir.MFence ||
				op.Code == progir.Join && op.Machine >= 0 && op.Machine < m
			if op.Cell >= 0 && op.Cell < p.Cells {
				ok = ok || op.Code == progir.Store && op.Size == 8 ||
					op.Code == progir.Flush || op.Code == progir.FlushOpt
			}
			if !ok {
				return fmt.Errorf("oracle: machine %d's op %d, %+v, is outside the scope", m, i, op)
			}
		}
	}
	return nil
}
