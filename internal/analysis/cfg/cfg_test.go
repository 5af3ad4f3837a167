package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses a function body from the statements in src.
func parseBody(t testing.TB, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// checkInvariants asserts the structural well-formedness every graph
// must satisfy (shared with FuzzCFGBuild).
func checkInvariants(t testing.TB, g *Graph) {
	t.Helper()
	if g.Entry == nil || g.Exit == nil {
		t.Fatalf("missing entry/exit")
	}
	byIndex := map[int]*Block{}
	for i, b := range g.Blocks {
		if b == nil {
			t.Fatalf("nil block at %d", i)
		}
		if b.Index != i {
			t.Fatalf("block %d has Index %d", i, b.Index)
		}
		byIndex[i] = b
	}
	if !g.Entry.Live {
		t.Fatalf("entry not live")
	}
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.From != b {
				t.Fatalf("edge From mismatch in block %d", b.Index)
			}
			if byIndex[e.To.Index] != e.To {
				t.Fatalf("edge to foreign block from %d", b.Index)
			}
			found := false
			for _, p := range e.To.Preds {
				if p == e {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from Preds", e.From.Index, e.To.Index)
			}
			if e.Back && e.Loop == nil {
				t.Fatalf("back edge %d->%d without Loop", e.From.Index, e.To.Index)
			}
		}
		if b.Live {
			live := b == g.Entry
			for _, p := range b.Preds {
				if p.From.Live {
					live = true
				}
			}
			if !live {
				t.Fatalf("block %d live without live predecessor", b.Index)
			}
		}
	}
	for _, rb := range g.Returns {
		if len(rb.Nodes) == 0 {
			t.Fatalf("return block %d has no nodes", rb.Index)
		}
		if _, ok := rb.Nodes[len(rb.Nodes)-1].(*ast.ReturnStmt); !ok {
			t.Fatalf("return block %d does not end in return", rb.Index)
		}
	}
}

// kinds returns the Kind of every live block, for shape assertions.
func kinds(g *Graph) map[string]int {
	m := map[string]int{}
	for _, b := range g.Blocks {
		if b.Live {
			m[b.Kind]++
		}
	}
	return m
}

func TestIfShape(t *testing.T) {
	g := New(parseBody(t, `
		x := 1
		if x > 0 {
			x = 2
		} else {
			x = 3
		}
		_ = x
	`))
	checkInvariants(t, g)
	k := kinds(g)
	if k["if.then"] != 1 || k["if.else"] != 1 || k["if.done"] != 1 {
		t.Fatalf("unexpected shape: %v", k)
	}
	// The entry block's branch edges must carry the condition.
	var condEdges int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond != nil {
				condEdges++
			}
		}
	}
	if condEdges != 2 {
		t.Fatalf("want 2 conditional edges, got %d", condEdges)
	}
	if !g.Exit.Live {
		t.Fatalf("function falls through; exit must be live")
	}
}

func TestAllPathsReturn(t *testing.T) {
	g := New(parseBody(t, `
		if true {
			return
		}
		return
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("every path returns; exit must be dead")
	}
	if len(g.Returns) != 2 {
		t.Fatalf("want 2 return blocks, got %d", len(g.Returns))
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := New(parseBody(t, `
		for i := 0; i < 10; i++ {
			_ = i
		}
	`))
	checkInvariants(t, g)
	var backs int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Back {
				backs++
				if _, ok := e.Loop.(*ast.ForStmt); !ok {
					t.Fatalf("back edge Loop is %T", e.Loop)
				}
			}
		}
	}
	if backs != 1 {
		t.Fatalf("want 1 back edge, got %d", backs)
	}
	if !g.Exit.Live {
		t.Fatalf("bounded loop falls through")
	}
}

func TestInfiniteLoopKillsExit(t *testing.T) {
	g := New(parseBody(t, `
		for {
			_ = 1
		}
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("for{} never falls through; exit must be dead")
	}
}

func TestInfiniteLoopWithBreak(t *testing.T) {
	g := New(parseBody(t, `
		for {
			if true {
				break
			}
		}
	`))
	checkInvariants(t, g)
	if !g.Exit.Live {
		t.Fatalf("break escapes the loop; exit must be live")
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	g := New(parseBody(t, `
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if j == i {
					continue outer
				}
				if j > i {
					break outer
				}
			}
		}
	`))
	checkInvariants(t, g)
	if !g.Exit.Live {
		t.Fatalf("labeled break reaches the end")
	}
	var backs int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Back {
				backs++
			}
		}
	}
	// Outer loop: continue-outer edge targets for.post, which back-jumps
	// to the outer head; inner loop has its own back edge.
	if backs < 2 {
		t.Fatalf("want >=2 back edges, got %d", backs)
	}
}

func TestRangeMarker(t *testing.T) {
	g := New(parseBody(t, `
		xs := []int{1, 2}
		for _, x := range xs {
			_ = x
		}
	`))
	checkInvariants(t, g)
	found := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				found = true
				if b.Kind != "range.head" {
					t.Fatalf("range marker in %q block", b.Kind)
				}
			}
		}
	}
	if !found {
		t.Fatalf("range marker node missing")
	}
}

func TestSwitchNoDefaultFallsThrough(t *testing.T) {
	g := New(parseBody(t, `
		x := 1
		switch x {
		case 1:
			return
		case 2:
			return
		}
		_ = x
	`))
	checkInvariants(t, g)
	if !g.Exit.Live {
		t.Fatalf("switch without default must fall through")
	}
}

func TestSwitchAllReturnWithDefault(t *testing.T) {
	g := New(parseBody(t, `
		x := 1
		switch x {
		case 1:
			return
		default:
			return
		}
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("exhaustive switch where all clauses return: exit dead")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := New(parseBody(t, `
		x := 1
		switch x {
		case 1:
			x = 2
			fallthrough
		case 2:
			return
		default:
		}
	`))
	checkInvariants(t, g)
	// The fallthrough edge means clause 1's body can reach clause 2's
	// return; exit stays live via the empty default.
	if !g.Exit.Live {
		t.Fatalf("default clause falls through")
	}
}

func TestSelectBlocksWithoutDefault(t *testing.T) {
	g := New(parseBody(t, `
		ch := make(chan int)
		select {
		case <-ch:
			return
		}
		_ = ch
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("single-case select whose arm returns: exit dead")
	}
}

func TestEmptySelectTerminates(t *testing.T) {
	g := New(parseBody(t, `
		select {}
		_ = 1
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("select{} blocks forever; exit must be dead")
	}
	// The trailing statement lives in a dead block, surfaced by
	// UnreachableSpans.
	if len(g.UnreachableSpans()) == 0 {
		t.Fatalf("statement after select{} should be in a dead span")
	}
}

func TestPanicTerminates(t *testing.T) {
	g := New(parseBody(t, `
		panic("no")
		_ = 1
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("panic terminates the path")
	}
	if len(g.UnreachableSpans()) == 0 {
		t.Fatalf("code after panic is unreachable")
	}
}

func TestOsExitTerminates(t *testing.T) {
	g := New(parseBody(t, `
		os.Exit(1)
		_ = 1
	`))
	checkInvariants(t, g)
	if g.Exit.Live {
		t.Fatalf("os.Exit terminates the path")
	}
}

func TestGoto(t *testing.T) {
	g := New(parseBody(t, `
		i := 0
	loop:
		if i < 3 {
			i++
			goto loop
		}
	`))
	checkInvariants(t, g)
	if !g.Exit.Live {
		t.Fatalf("goto loop exits when cond is false")
	}
}

func TestDeferAndGoAreNodes(t *testing.T) {
	g := New(parseBody(t, `
		defer println("d")
		go println("g")
	`))
	checkInvariants(t, g)
	var def, gon bool
	for _, n := range g.Entry.Nodes {
		switch n.(type) {
		case *ast.DeferStmt:
			def = true
		case *ast.GoStmt:
			gon = true
		}
	}
	if !def || !gon {
		t.Fatalf("defer/go must appear as entry-block nodes")
	}
}

// TestForwardFixpoint exercises the generic engine with a tiny
// "definitely-assigned" analysis: a variable is definitely assigned at
// a point iff every path to it assigns the variable.
func TestForwardFixpoint(t *testing.T) {
	body := parseBody(t, `
		var x int
		if cond {
			x = 1
		}
		_ = x
	`)
	g := New(body)
	type state = map[string]bool
	assigned := func(n ast.Node, s state) {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					s[id.Name] = true
				}
			}
		}
	}
	f := &Flow[state]{
		Entry: func() state { return state{} },
		Clone: func(s state) state {
			c := make(state, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Merge: func(dst, src state) bool {
			// Definite assignment = intersection.
			changed := false
			for k := range dst {
				if !src[k] {
					delete(dst, k)
					changed = true
				}
			}
			return changed
		},
		Transfer: assigned,
	}
	in, ok := f.Forward(g)
	if !ok {
		t.Fatalf("fixpoint did not converge")
	}
	if !ReachedExit(g, in) {
		t.Fatalf("exit unreached")
	}
	// x is assigned on only one arm, so it is not definitely assigned
	// at exit.
	if in[g.Exit]["x"] {
		t.Fatalf("x must not be definitely assigned at exit")
	}
}

// TestForwardRefine checks that edge refinement specializes branch
// states: along the true edge of `if v == nil`, v is known nil.
func TestForwardRefine(t *testing.T) {
	body := parseBody(t, `
		if v == nil {
			use(1)
		} else {
			use(2)
		}
	`)
	g := New(body)
	type state = map[string]string // var -> "nil" | "nonnil"
	var thenState, elseState string
	f := &Flow[state]{
		Entry: func() state { return state{} },
		Clone: func(s state) state {
			c := make(state, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Merge: func(dst, src state) bool {
			changed := false
			for k, v := range dst {
				if src[k] != v {
					delete(dst, k)
					changed = true
				}
			}
			return changed
		},
		Transfer: func(n ast.Node, s state) {},
		Refine: func(cond ast.Expr, branch bool, s state) {
			be, ok := cond.(*ast.BinaryExpr)
			if !ok || be.Op != token.EQL {
				return
			}
			id, ok := be.X.(*ast.Ident)
			if !ok {
				return
			}
			if _, isNil := be.Y.(*ast.Ident); !isNil {
				return
			}
			if branch {
				s[id.Name] = "nil"
			} else {
				s[id.Name] = "nonnil"
			}
		},
	}
	in, ok := f.Forward(g)
	if !ok {
		t.Fatalf("fixpoint did not converge")
	}
	for _, b := range g.Blocks {
		switch b.Kind {
		case "if.then":
			thenState = in[b]["v"]
		case "if.else":
			elseState = in[b]["v"]
		}
	}
	if thenState != "nil" || elseState != "nonnil" {
		t.Fatalf("refinement missing: then=%q else=%q", thenState, elseState)
	}
	// The states merge at the join: no agreed fact about v survives.
	if v, ok := in[g.Exit]["v"]; ok {
		t.Fatalf("conflicting facts must cancel at the join, got %q", v)
	}
}

// TestFixpointBudget builds a merge that never stabilizes and checks
// the engine bails instead of spinning.
func TestFixpointBudget(t *testing.T) {
	g := New(parseBody(t, `
		for {
			if cond {
				break
			}
		}
	`))
	type state = *int
	n := 0
	f := &Flow[state]{
		Entry:     func() state { v := 0; return &v },
		Clone:     func(s state) state { v := *s; return &v },
		Merge:     func(dst, src state) bool { n++; *dst = n; return true }, // never converges
		Transfer:  func(ast.Node, state) {},
		MaxVisits: 8,
	}
	if _, ok := f.Forward(g); ok {
		t.Fatalf("non-monotone merge must exhaust the budget")
	}
}

// TestNestedEverything is a smoke test over deeply mixed control flow.
func TestNestedEverything(t *testing.T) {
	g := New(parseBody(t, `
		ch := make(chan int)
	outer:
		for i := 0; i < 4; i++ {
			switch {
			case i == 0:
				continue
			case i == 1:
				select {
				case v := <-ch:
					if v > 0 {
						break outer
					}
				default:
					defer println("x")
				}
			default:
				for range []int{1, 2} {
					goto done
				}
			}
		}
	done:
		_ = ch
	`))
	checkInvariants(t, g)
	if !g.Exit.Live {
		t.Fatalf("function must be able to fall through")
	}
}

func TestUnreachableSpansContain(t *testing.T) {
	src := `
		return
		println("dead")
	`
	g := New(parseBody(t, src))
	checkInvariants(t, g)
	spans := g.UnreachableSpans()
	if len(spans) == 0 {
		t.Fatalf("no dead spans found")
	}
	// Find the dead call's position and assert containment.
	var deadPos token.Pos
	for _, b := range g.Blocks {
		if b.Live {
			continue
		}
		for _, n := range b.Nodes {
			deadPos = n.Pos()
		}
	}
	hit := false
	for _, sp := range spans {
		if sp.Contains(deadPos) {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("dead node position not covered by spans")
	}
	if strings.Contains(src, "never") {
		t.Fatal("unused")
	}
}
