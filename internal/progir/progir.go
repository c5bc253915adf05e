// Package progir is the program IR: a small program as plain data —
// machines of threads of ops over a few 8-byte shared cells — rolled at
// random (Generate) or enumerated exhaustively (Corpus). harness.Build
// turns one into a checker program. The package imports only the standard
// library, so code that judges the checker by a program's text need not
// depend on the checker.
package progir

import (
	"iter"
	"math/rand"
)

// Code names one op of a generated thread body.
type Code int

const (
	Store Code = iota
	Load
	Flush
	FlushOpt // CLFLUSHOPT then SFENCE
	SFence
	MFence
	CAS // CAS64(cell, 0, Val)
	FetchAdd
	Yield
	Critical // lock; Inner; unlock
	Join     // wait until machine Machine, a lower-numbered one, finished or failed
)

// Op is one op of a thread body. Ops without a cell leave Cell 0.
type Op struct {
	Code Code
	Cell int
	Size int // 1, 2, 4 or 8 for loads and stores
	Val  uint64
	// Inner is a Critical's body: no Critical and no Yield.
	Inner   []Op
	Machine int // a Join's
}

// Program is a generated program. Every worker thread runs its ops; an
// observer machine then joins every worker machine and loads the cells
// Observe lists, in order.
type Program struct {
	Machines [][][]Op // [machine][thread]ops
	Cells    int
	// Lines maps each cell to its cache line; nil puts each cell on its own.
	Lines []int
	// Observe lists the cells the observer loads; nil loads every cell once.
	Observe []int
	// Mutex is set iff some op is a Critical: the one mutex they share.
	Mutex bool
	// Pattern plants a writer/reader pattern on cells 0 (data) and 1
	// (flag), which random ops never touch: machine 0's thread 0 opens by
	// storing 42 to the data and 1 to the flag, flushing the flag and, on
	// some seeds, the data; the observer asserts flag = 1 ⇒ data = 42.
	// Without the data's flush that is a genuine crash-consistency bug,
	// which gives a swarm steady bug-report and token-replay coverage.
	Pattern bool
}

// GenConfig bounds the generator. Zero fields take the defaults below;
// the bounds are deliberately small — the value of a swarm is many tiny
// state spaces explored to completion, not a few huge ones truncated by
// execution caps. The JSON names are a job spec's "gen" fields.
type GenConfig struct {
	MaxMachines          int `json:"machines,omitempty"` // worker machines, excluding the observer
	MaxThreadsPerMachine int `json:"threads_per_machine,omitempty"`
	MaxOpsPerThread      int `json:"ops_per_thread,omitempty"`
	MaxCells             int `json:"cells,omitempty"`   // 8-byte shared cells
	FlushBudget          int `json:"flushes,omitempty"` // random flushes per program (crash branches multiply per flush)
}

func (gc GenConfig) withDefaults() GenConfig {
	if gc.MaxMachines <= 0 {
		gc.MaxMachines = 3
	}
	if gc.MaxThreadsPerMachine <= 0 {
		gc.MaxThreadsPerMachine = 2
	}
	if gc.MaxOpsPerThread <= 0 {
		gc.MaxOpsPerThread = 6
	}
	if gc.MaxCells <= 0 {
		gc.MaxCells = 4
	}
	if gc.FlushBudget <= 0 {
		gc.FlushBudget = 3
	}
	return gc
}

// Generate rolls a deterministic random program for seed.
func Generate(seed int64, gc GenConfig) *Program {
	gc = gc.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	// Both pattern coins are drawn whatever the bounds, so the rest of the
	// stream does not shift; the pattern needs a random cell beside its two.
	planted, flushData := rng.Intn(2) == 0, rng.Intn(2) == 0
	p := &Program{Pattern: planted && gc.MaxCells >= 3}
	g := &gen{rng: rng, p: p, flushes: gc.FlushBudget}
	if p.Pattern {
		g.base = 2
	}
	p.Cells = g.base + 1 + rng.Intn(gc.MaxCells-g.base)

	for m := range 1 + rng.Intn(gc.MaxMachines) {
		threads := make([][]Op, 1+rng.Intn(gc.MaxThreadsPerMachine))
		for t := range threads {
			var ops []Op
			if p.Pattern && m == 0 && t == 0 {
				ops = patternWriter(flushData)
			}
			for range rng.Intn(gc.MaxOpsPerThread + 1) {
				ops = append(ops, g.rollOp(10))
			}
			threads[t] = ops
		}
		p.Machines = append(p.Machines, threads)
	}
	return p
}

// patternWriter is the writer half of Program.Pattern.
func patternWriter(flushData bool) []Op {
	ops := []Op{{Code: Store, Cell: 0, Size: 8, Val: 42}}
	if flushData {
		ops = append(ops, Op{Code: Flush, Cell: 0}, Op{Code: SFence})
	}
	return append(ops, Op{Code: Store, Cell: 1, Size: 8, Val: 1}, Op{Code: Flush, Cell: 1}, Op{Code: SFence})
}

type gen struct {
	rng     *rand.Rand
	p       *Program
	base    int // the first cell random ops may touch
	flushes int // random flushes left
}

// rollOp rolls one op from the first n codes: all ten at the top of a
// thread body, the first eight (no Yield, no Critical) inside a critical
// section, so sections never nest and lock-induced blocking stays short.
// A flush rolled once the budget is spent is rolled again.
func (g *gen) rollOp(n int) Op {
	for {
		op := Op{Code: Code(g.rng.Intn(n))}
		switch op.Code {
		case Store, Load:
			op.Cell = g.cell()
			op.Size = 1 << g.rng.Intn(4)
			op.Val = uint64(g.rng.Intn(256))
		case Flush, FlushOpt:
			if g.flushes == 0 {
				continue
			}
			g.flushes--
			op.Cell = g.cell()
		case CAS, FetchAdd:
			op.Cell = g.cell()
			op.Val = uint64(g.rng.Intn(256))
		case Critical:
			g.p.Mutex = true
			for range 1 + g.rng.Intn(2) {
				op.Inner = append(op.Inner, g.rollOp(8))
			}
		}
		return op
	}
}

func (g *gen) cell() int { return g.base + g.rng.Intn(g.p.Cells-g.base) }

// Line returns cell's cache line.
func (p *Program) Line(cell int) int {
	if p.Lines == nil {
		return cell
	}
	return p.Lines[cell]
}

// Observed returns the cells the observer loads, in order.
func (p *Program) Observed() []int {
	if p.Observe != nil {
		return p.Observe
	}
	cells := make([]int, p.Cells)
	for c := range cells {
		cells[c] = c
	}
	return cells
}

// Corpus enumerates the oracle's exhaustive small scope: every program of
// two writer machines of one thread each, each running up to k ops drawn
// from eight symbols — an 8-byte store to cell 0 or 1, a Flush or FlushOpt
// of either cell, an SFence, an MFence. Each store writes a value distinct
// for k < 10: 10·(machine+1) plus its position, counted from 1. Writers come
// in unordered pairs, crossed with {one line per cell, both cells on one
// line} and {unjoined, the second writer first joins the first}: 10 804
// programs at k = 2, 685 620 at k = 3.
func Corpus(k int) iter.Seq[*Program] {
	symbols := []Op{{Code: Store, Cell: 0, Size: 8}, {Code: Store, Cell: 1, Size: 8},
		{Code: Flush}, {Code: Flush, Cell: 1}, {Code: FlushOpt}, {Code: FlushOpt, Cell: 1},
		{Code: SFence}, {Code: MFence}}
	var writers [2][][]Op // each machine's, in the same order
	for m := range writers {
		writers[m] = [][]Op{nil}
		for i := 0; i < len(writers[m]); i++ {
			if w := writers[m][i]; len(w) < k {
				for _, op := range symbols {
					if op.Code == Store {
						op.Val = uint64(10*(m+1) + len(w) + 1)
					}
					writers[m] = append(writers[m], append(w[:len(w):len(w)], op))
				}
			}
		}
	}
	return func(yield func(*Program) bool) {
		for i, a := range writers[0] {
			for _, b := range writers[1][i:] {
				for _, lines := range [][]int{nil, {0, 0}} {
					for _, join := range [][]Op{nil, {{Code: Join}}} {
						p := &Program{Machines: [][][]Op{{a}, {append(join, b...)}}, Cells: 2, Lines: lines}
						if !yield(p) {
							return
						}
					}
				}
			}
		}
	}
}
