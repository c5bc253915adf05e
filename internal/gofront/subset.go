package gofront

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// subsetCheck statically rejects the syntax outside the subset, with a
// positioned diagnostic per occurrence, before the compiler sees the
// file; what is in the subset's syntax but cannot be lowered (a method
// value, a struct by value) is the compiler's to report. Dynamic
// problems (out-of-range indexes, division by zero, phase violations)
// surface as positioned faults at run time instead. func main is
// exempt: it is native-only glue (cxl.RunNative) that the checker never
// runs.
func (s *Source) subsetCheck(file *ast.File, info *types.Info) DiagnosticList {
	var diags DiagnosticList
	addf := func(pos token.Pos, format string, args ...any) {
		if len(diags) < maxDiagnostics {
			diags = append(diags, Diagnostic{Pos: s.pos(pos), Msg: fmt.Sprintf(format, args...)})
		}
	}

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok == token.VAR {
				addf(d.Pos(), "package-level variables are unsupported: pass state through the entry function's *cxl.Region and closures")
			}
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "main" {
				continue // native-only glue, never interpreted
			}
			s.checkFunc(d, info, addf)
		}
	}
	return diags
}

func (s *Source) checkFunc(fd *ast.FuncDecl, info *types.Info, addf func(token.Pos, string, ...any)) {
	if fd.Type.TypeParams != nil {
		addf(fd.Type.TypeParams.Pos(), "generic functions are unsupported")
	}
	s.checkSignature(fd.Type, addf)
	if fd.Body == nil {
		addf(fd.Pos(), "function %s has no body", fd.Name.Name)
		return
	}
	s.checkBody(fd.Body, fd.Type, info, addf)
}

func (s *Source) checkSignature(ft *ast.FuncType, addf func(token.Pos, string, ...any)) {
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			if len(f.Names) > 0 {
				addf(f.Pos(), "named result parameters are unsupported")
			}
		}
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			if _, ok := f.Type.(*ast.Ellipsis); ok {
				addf(f.Pos(), "variadic functions are unsupported (the cxl API's own variadics are fine)")
			}
		}
	}
}

// interpBuiltins are the builtins the compiler lowers.
var interpBuiltins = map[string]bool{"len": true, "cap": true, "append": true, "make": true}

func (s *Source) checkBody(body *ast.BlockStmt, ftype *ast.FuncType, info *types.Info, addf func(token.Pos, string, ...any)) {
	hasResults := ftype.Results != nil && len(ftype.Results.List) > 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			addf(x.Pos(), "go statements are unsupported: declare threads with Machine.Spawn during setup")
			return false
		case *ast.SelectStmt:
			addf(x.Pos(), "select statements are unsupported (checked programs have no channels)")
			return false
		case *ast.SendStmt:
			addf(x.Pos(), "channel sends are unsupported (use shared memory through the cxl API)")
			return false
		case *ast.TypeSwitchStmt:
			addf(x.Pos(), "type switches are unsupported")
			return false
		case *ast.TypeAssertExpr:
			addf(x.Pos(), "type assertions are unsupported")
			return false
		case *ast.LabeledStmt:
			addf(x.Pos(), "labeled statements are unsupported")
			return false
		case *ast.BranchStmt:
			if x.Tok == token.GOTO || x.Tok == token.FALLTHROUGH || x.Label != nil {
				addf(x.Pos(), "%s is unsupported", x.Tok)
			}
		case *ast.ReturnStmt:
			if len(x.Results) == 0 && hasResults {
				addf(x.Pos(), "bare returns are unsupported")
			}
		case *ast.MapType:
			addf(x.Pos(), "map types are unsupported")
			return false
		case *ast.ChanType:
			addf(x.Pos(), "channel types are unsupported")
			return false
		case *ast.InterfaceType:
			addf(x.Pos(), "interface types are unsupported (cxl.Assert's own ...any arguments are fine)")
			return false
		case *ast.ArrayType:
			if x.Len != nil {
				addf(x.Pos(), "fixed-size arrays are unsupported (use slices)")
			}
		case *ast.SliceExpr:
			addf(x.Pos(), "slice expressions are unsupported")
		case *ast.IndexListExpr:
			addf(x.Pos(), "generic instantiation is unsupported")
		case *ast.StarExpr:
			// *T in type position is fine (pointer-shaped structs); a
			// dereference expression is not.
			if tv, ok := info.Types[x]; !ok || !tv.IsType() {
				addf(x.Pos(), "pointer dereference is unsupported (structs are pointer-shaped: access fields directly)")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); !ok {
					addf(x.Pos(), "& is only supported on struct literals")
				}
			}
			if x.Op == token.ARROW {
				addf(x.Pos(), "channel receives are unsupported")
			}
		case *ast.FuncLit:
			s.checkSignature(x.Type, addf)
		case *ast.StructType:
			for _, f := range x.Fields.List {
				if len(f.Names) == 0 {
					addf(f.Pos(), "embedded struct fields are unsupported")
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && !interpBuiltins[b.Name()] {
					addf(x.Pos(), "builtin %s is unsupported", b.Name())
				}
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
					fn.Pkg() == s.cxlPkg && fn.Name() == "RunNative" {
					addf(x.Pos(), "cxl.RunNative is native-only: call it from func main, which the checker never interprets")
				}
			}
		}
		return true
	})
}
