// Package gofront is the native Go source front-end: it loads an
// ordinary Go file written against the gofront/cxl API, type-checks it
// with a synthetic importer (no compiled export data, no external
// dependencies — go/parser + go/types only), and compiles the checked
// functions, once, at Load, into closures whose loads, stores, atomics,
// flushes and locks are bound directly to core.Thread events: locals are
// frame slots, constants are folded, integers and bools never leave a
// uint64 or a bool, and running a program walks no syntax. The checker's
// machinery — state-space reduction, the race detector, repro tokens,
// Replay — works unchanged on source-loaded programs, because by the time
// the engine sees them they are just another func(*core.Program).
//
// The supported subset is deliberately small and fully diagnosed. What
// is outside it fails at load time with positioned file:line
// diagnostics (at most ten, one per source line): anything the type
// checker rejects, syntax outside the subset (subset.go), and
// constructs in it that the compiler cannot lower — a method value, a
// struct by value, a keyed slice literal. What only a run can tell is a
// positioned fault when reached, never a bare panic: an index out of
// range, a nil dereference or nil call, a division by zero, a negative
// shift count, a cxl operation in the wrong phase, and the budgets that
// keep a hostile source from costing the host more than a report (call
// depth, loop iterations, memory, pending deferred calls).
//
// Compiled code keeps Go's order of evaluation where a checked program
// can tell the difference, which is wherever cxl operations are
// operands: function calls, and with them cxl operations, happen in
// lexical left-to-right order; an assignment evaluates the index and
// pointer operands on its left and then the values on its right before
// it stores anything; an op-assignment or ++ evaluates its target's
// operands once; a deferred call's function and arguments are evaluated
// at the defer statement.
package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// maxDiagnostics caps how many load-time diagnostics one Load reports:
// enough to fix a file in one round, not a wall of follow-on errors.
const maxDiagnostics = 10

// Diagnostic is one positioned front-end error.
type Diagnostic struct {
	Pos token.Position
	Msg string
}

func (d Diagnostic) Error() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", d.Pos, d.Msg)
	}
	return d.Msg
}

// DiagnosticList is the error type Load returns: every positioned
// problem found in the file, stably ordered by position.
type DiagnosticList []Diagnostic

func (l DiagnosticList) Error() string {
	msgs := make([]string, len(l))
	for i, d := range l {
		msgs[i] = d.Error()
	}
	return strings.Join(msgs, "\n")
}

// Source is one loaded, type-checked and compiled source file, ready to
// be turned into checker programs. The syntax tree and the type
// information are gone by the time Load returns: what remains is the
// compiled code of every package-level function.
type Source struct {
	Filename string

	fset       *token.FileSet
	cxlPkg     *types.Package
	funcs      map[string]entryFunc
	nfuncs     int // compiled functions, func literals included
	maxResults int // widest result list, which sizes a machine's registers
	// deferInts and deferRefs are the widest deferred call's operand
	// slots, which size every deferred-call frame.
	deferInts, deferRefs int
	// machines pools the machines phases run on, for every exploration
	// worker running this Source's programs.
	machines sync.Pool
}

// entryFunc is one package-level function: its code, and whether its
// signature makes it usable as -entry.
type entryFunc struct {
	code  *fnCode
	entry bool
}

// Load parses and type-checks one Go source file against the synthetic
// cxl API, subset-checks every function in it (except main, which is
// native-only glue and never run by the checker) and compiles them. A
// nil error means every declared function runs: whatever the compiler
// cannot lower is a diagnostic here.
func Load(filename string, src []byte) (*Source, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, parseDiagnostics(fset, err)
	}

	cxlPkg, err := cxlAPI()
	if err != nil {
		return nil, fmt.Errorf("gofront: internal cxl API is broken: %v", err)
	}

	var diags DiagnosticList
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: synthImporter{},
		Error: func(err error) {
			te, ok := err.(types.Error)
			if !ok {
				diags = append(diags, Diagnostic{Msg: err.Error()})
				return
			}
			if len(diags) >= maxDiagnostics {
				return
			}
			diags = append(diags, Diagnostic{Pos: fset.Position(te.Pos), Msg: te.Msg})
		},
	}
	conf.Check(file.Name.Name, fset, []*ast.File{file}, info) // errors arrive through conf.Error
	if len(diags) > 0 {
		return nil, diags
	}

	s := &Source{Filename: filename, fset: fset, cxlPkg: cxlPkg, funcs: map[string]entryFunc{}}
	if diags := s.subsetCheck(file, info); len(diags) > 0 {
		return nil, diags
	}
	if diags := s.compile(file, info); len(diags) > 0 {
		return nil, diags
	}
	return s, nil
}

// parseDiagnostics converts parser errors (a scanner.ErrorList) into a
// DiagnosticList.
func parseDiagnostics(fset *token.FileSet, err error) error {
	el, ok := err.(scanner.ErrorList)
	if !ok {
		return DiagnosticList{{Msg: err.Error()}}
	}
	var diags DiagnosticList
	for i, e := range el {
		if i >= maxDiagnostics {
			break
		}
		diags = append(diags, Diagnostic{Pos: e.Pos, Msg: e.Msg})
	}
	return diags
}

// Entries returns the names of functions usable as -entry: package-level
// functions taking exactly one *cxl.Region parameter and returning
// nothing.
func (s *Source) Entries() []string {
	var out []string
	for name, f := range s.funcs {
		if f.entry {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// entrySignature reports whether sig is func(*cxl.Region).
func (s *Source) entrySignature(sig *types.Signature) bool {
	if sig.Results().Len() != 0 || sig.Params().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() == s.cxlPkg && named.Obj().Name() == "Region"
}

// Program returns the checker program for entry (a function with
// signature func(*cxl.Region)). The returned func is safe to run many
// times and from many exploration workers: the compiled code is
// immutable, and each phase of a call — the setup, each spawned thread —
// runs it on a machine no other phase holds, taken from the Source's
// pool and given back, reset, when the phase ends.
func (s *Source) Program(entry string) (func(*core.Program), error) {
	return s.program(entry, nil)
}

// VetProgram is Program plus a SiteMap: while the program runs, the
// compiled cxl operations record the source position of the first store and the
// first flush touching each cache line and of every mutex creation, so
// cxlvet findings can be annotated with real file:line positions.
func (s *Source) VetProgram(entry string) (func(*core.Program), *SiteMap, error) {
	sm := newSiteMap(s.fset)
	prog, err := s.program(entry, sm)
	return prog, sm, err
}

func (s *Source) program(entry string, sites *SiteMap) (func(*core.Program), error) {
	f, ok := s.funcs[entry]
	if !ok {
		return nil, fmt.Errorf("gofront: %s has no function %q (entry candidates: %s)",
			s.Filename, entry, strings.Join(s.Entries(), ", "))
	}
	if !f.entry {
		return nil, DiagnosticList{{
			Pos: s.fset.Position(f.code.pos),
			Msg: fmt.Sprintf("entry function %s must have signature func(*cxl.Region)", entry),
		}}
	}
	return func(p *core.Program) {
		m := s.newMachine(nil, sites, arenaOf(p))
		defer m.release()
		fr := m.get(f.code)
		fr.refs[0] = p
		m.exec(f.code, fr, f.code.pos)
	}, nil
}

// SiteMap maps checker-level artifacts (cache lines, mutex names) back
// to source positions, populated during a vet dry run. Guarded by a
// mutex because programDigestOf runs the program's setup once more on
// the side; first occurrence wins so the map reflects the dry run.
type SiteMap struct {
	fset *token.FileSet

	mu      sync.Mutex
	storeAt map[uint64]token.Position
	flushAt map[uint64]token.Position
	mutexAt map[string]token.Position
}

func newSiteMap(fset *token.FileSet) *SiteMap {
	return &SiteMap{
		fset:    fset,
		storeAt: map[uint64]token.Position{},
		flushAt: map[uint64]token.Position{},
		mutexAt: map[string]token.Position{},
	}
}

func (sm *SiteMap) recordStore(addr core.Addr, pos token.Pos) {
	if sm == nil {
		return
	}
	line := uint64(memmodel.LineOf(addr))
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if _, ok := sm.storeAt[line]; !ok {
		sm.storeAt[line] = sm.fset.Position(pos)
	}
}

func (sm *SiteMap) recordFlush(addr core.Addr, pos token.Pos) {
	if sm == nil {
		return
	}
	line := uint64(memmodel.LineOf(addr))
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if _, ok := sm.flushAt[line]; !ok {
		sm.flushAt[line] = sm.fset.Position(pos)
	}
}

func (sm *SiteMap) recordMutex(name string, pos token.Pos) {
	if sm == nil {
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if _, ok := sm.mutexAt[name]; !ok {
		sm.mutexAt[name] = sm.fset.Position(pos)
	}
}

// Annotate rewrites the report's finding messages with source
// positions: store sites for unflushed-publish lines, flush sites for
// dead failure points, creation sites for the mutexes named by
// lock-order findings. The report's structure (kinds, lines,
// FlaggedLines) is untouched, so the -race-detect arming path stays
// digest-identical to the hand-ported flow.
func (sm *SiteMap) Annotate(rep *analyze.Report) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for i := range rep.Findings {
		f := &rep.Findings[i]
		switch f.Kind {
		case analyze.UnflushedPublish:
			if pos, ok := sm.storeAt[f.Line]; ok {
				f.Message += fmt.Sprintf(" [stored at %s]", trimPos(pos))
			}
		case analyze.DeadFailurePoint:
			if pos, ok := sm.flushAt[f.Line]; ok {
				f.Message += fmt.Sprintf(" [flushed at %s]", trimPos(pos))
			}
		case analyze.LockOrderCycle:
			var names []string
			for name := range sm.mutexAt {
				if strings.Contains(f.Message, name) {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			var sites []string
			for _, name := range names {
				sites = append(sites, fmt.Sprintf("%s at %s", name, trimPos(sm.mutexAt[name])))
			}
			if len(sites) > 0 {
				f.Message += fmt.Sprintf(" [%s]", strings.Join(sites, ", "))
			}
		}
	}
}

// trimPos renders a position as file:line (dropping the column: the
// line is what a human greps for, and column drift would churn goldens).
func trimPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// pos formats a token.Pos for diagnostics.
func (s *Source) pos(p token.Pos) token.Position { return s.fset.Position(p) }
