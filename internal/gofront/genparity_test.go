package gofront_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/progir"
)

// genSource renders a generated program as a gofront/cxl source file
// that does, op for op, what harness.Build makes of it.
func genSource(p *progir.Program) string {
	var b strings.Builder
	b.WriteString("package main\n\nimport \"cxl\"\n\nfunc Program(r *cxl.Region) {\n")
	for c := range p.Cells {
		fmt.Fprintf(&b, "\tc%d := r.AllocAligned(8, 64)\n", c)
	}
	if p.Mutex {
		b.WriteString("\tmu := r.NewMutex(\"stress\")\n")
	}
	for m, threads := range p.Machines {
		fmt.Fprintf(&b, "\tm%d := r.NewMachine(\"m%d\")\n", m, m)
		for t, ops := range threads {
			fmt.Fprintf(&b, "\tm%d.Spawn(\"t%d\", func() {\n", m, t)
			genRender(&b, ops, "\t\t")
			b.WriteString("\t})\n")
		}
	}
	b.WriteString("\tr.NewMachine(\"observer\").Spawn(\"check\", func() {\n")
	for m := range p.Machines {
		fmt.Fprintf(&b, "\t\tcxl.Join(m%d)\n", m)
	}
	if p.Pattern {
		b.WriteString("\t\tif cxl.Load64(c1) == 1 {\n\t\t\tcxl.Assert(cxl.Load64(c0) == 42, \"pattern: flag set but data lost\")\n\t\t}\n")
	}
	for c := range p.Cells {
		fmt.Fprintf(&b, "\t\tcxl.Load64(c%d)\n", c)
	}
	b.WriteString("\t})\n}\n")
	return b.String()
}

func genRender(b *strings.Builder, ops []progir.Op, indent string) {
	for _, op := range ops {
		b.WriteString(indent)
		switch op.Code {
		case progir.Store:
			fmt.Fprintf(b, "cxl.Store%d(c%d, %d)\n", 8*op.Size, op.Cell, op.Val)
		case progir.Load:
			fmt.Fprintf(b, "cxl.Load%d(c%d)\n", 8*op.Size, op.Cell)
		case progir.Flush:
			fmt.Fprintf(b, "cxl.Flush(c%d)\n", op.Cell)
		case progir.FlushOpt:
			fmt.Fprintf(b, "cxl.FlushOpt(c%d)\n%scxl.Fence()\n", op.Cell, indent)
		case progir.SFence:
			b.WriteString("cxl.Fence()\n")
		case progir.MFence:
			b.WriteString("cxl.MFence()\n")
		case progir.CAS:
			fmt.Fprintf(b, "cxl.CAS64(c%d, 0, %d)\n", op.Cell, op.Val)
		case progir.FetchAdd:
			fmt.Fprintf(b, "cxl.FetchAdd64(c%d, %d)\n", op.Cell, op.Val)
		case progir.Yield:
			b.WriteString("cxl.Yield()\n")
		case progir.Critical:
			b.WriteString("mu.Lock()\n")
			genRender(b, op.Inner, indent)
			fmt.Fprintf(b, "%smu.Unlock()\n", indent)
		}
	}
}

// TestGeneratedProgramsThroughSource: crashing multi-machine programs —
// three machines of up to three threads, one to five cells, locks,
// flushes and the planted pattern — explore the same through the
// front-end as through harness.Build: the same op stream, execution for
// execution, and the same bugs with the same repro tokens.
func TestGeneratedProgramsThroughSource(t *testing.T) {
	explore := func(prog func(*core.Program)) ([][]core.OpEvent, []string) {
		var log opLog
		res, err := core.Run(core.Config{Workers: 1, ContinueAfterBug: true, Observer: &log}, log.wrap(prog))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var bugs []string
		for _, b := range res.Bugs {
			bugs = append(bugs, fmt.Sprintf("[%s] %s %s", b.Kind, b.Message, b.ReproToken))
		}
		return log.streams(), bugs
	}
	for seed := int64(0); seed < 300; seed++ {
		p := progir.Generate(seed, progir.GenConfig{
			MaxMachines: 3, MaxThreadsPerMachine: 3, MaxOpsPerThread: 8, MaxCells: 1 + int(seed%5)})
		src := genSource(p)
		prog, err := load(t, src).Program("Program")
		if err != nil {
			t.Fatalf("seed %d: Program: %v\n%s", seed, err, src)
		}
		wantStreams, wantBugs := explore(harness.Build(p))
		gotStreams, gotBugs := explore(prog)
		sameStreams(t, fmt.Sprintf("seed %d", seed), gotStreams, wantStreams)
		if !reflect.DeepEqual(gotBugs, wantBugs) {
			t.Fatalf("seed %d: the source reported\n  %v\nharness.Build's program\n  %v\n%s", seed, gotBugs, wantBugs, src)
		}
	}
}
