// Package callgraph builds the static call graph of a module program and
// derives the reconfiguration graph of Section 3 / Figure 6.
//
// The static call graph has a node per procedure and a directed edge per
// call relationship. "At any particular time during program execution, the
// frames contained in the activation record stack correspond to a path in
// the static call graph originating at node main" — so the graph defines
// every possible activation-record stack.
//
// The reconfiguration graph is the sub-call-graph restricted to procedures
// that lie on a path from main to a procedure containing a reconfiguration
// point, augmented with one edge per *call site* (a procedure calling
// another twice contributes two edges), one reconfig node, and one edge
// from each reconfiguration point to it. Edges are numbered consecutively;
// each edge (i, Si) names the integer passed to mh_capture and the
// statement that receives the capture block.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/scanner"
	"sort"
	"strings"

	"repro/internal/lang"
)

// Call is one call site in the static call graph.
type Call struct {
	Caller string
	Callee string
	Expr   *ast.CallExpr
	Line   int
}

// Graph is the static call graph of a module program.
type Graph struct {
	Prog *lang.Program
	// Nodes lists every function, in declaration order.
	Nodes []string
	// Calls lists every call site, in declaration-then-source order.
	Calls []Call
}

// Build constructs the static call graph. The program must already be
// checked (Build itself only needs the parse).
func Build(prog *lang.Program) *Graph {
	g := &Graph{Prog: prog, Nodes: append([]string(nil), prog.FuncOrder...)}
	for _, name := range prog.FuncOrder {
		fn := prog.Funcs[name]
		for _, call := range lang.CallTargets(prog, fn) {
			callee := call.Fun.(*ast.Ident).Name
			g.Calls = append(g.Calls, Call{
				Caller: name,
				Callee: callee,
				Expr:   call,
				Line:   prog.Fset.Position(call.Pos()).Line,
			})
		}
	}
	return g
}

// ReachableFrom returns the set of functions reachable from start
// (including start).
func (g *Graph) ReachableFrom(start string) map[string]bool {
	out := map[string]bool{}
	var visit func(string)
	visit = func(n string) {
		if out[n] {
			return
		}
		out[n] = true
		for _, c := range g.Calls {
			if c.Caller == n {
				visit(c.Callee)
			}
		}
	}
	if _, ok := g.Prog.Funcs[start]; ok {
		visit(start)
	}
	return out
}

// CanReach returns the set of functions from which any of the targets is
// reachable (including the targets themselves).
func (g *Graph) CanReach(targets map[string]bool) map[string]bool {
	out := map[string]bool{}
	for t := range targets {
		if _, ok := g.Prog.Funcs[t]; ok {
			out[t] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range g.Calls {
			if out[c.Callee] && !out[c.Caller] {
				out[c.Caller] = true
				changed = true
			}
		}
	}
	return out
}

// CyclicSCCs returns the strongly connected components of the call graph
// that contain a cycle: components with more than one member, plus
// single-function components with a self-call. Members are listed in
// declaration order and components are ordered by their first member's
// declaration position, so the output is deterministic.
func (g *Graph) CyclicSCCs() [][]string {
	order := map[string]int{}
	for i, n := range g.Nodes {
		order[n] = i
	}
	succs := map[string][]string{}
	for _, c := range g.Calls {
		if _, ok := order[c.Callee]; ok {
			succs[c.Caller] = append(succs[c.Caller], c.Callee)
		}
	}

	// Tarjan's algorithm, iterative to keep deep chains off the Go stack.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string

	type frame struct {
		node string
		succ int
	}
	for _, root := range g.Nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{node: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			n := fr.node
			if fr.succ == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for fr.succ < len(succs[n]) {
				m := succs[n][fr.succ]
				fr.succ++
				if _, seen := index[m]; !seen {
					work = append(work, frame{node: m})
					advanced = true
					break
				}
				if onStack[m] && index[m] < low[n] {
					low[n] = index[m]
				}
			}
			if advanced {
				continue
			}
			// All successors done: pop and propagate the low link.
			if low[n] == index[n] {
				var comp []string
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				if g.sccCyclic(comp) {
					sort.Slice(comp, func(i, j int) bool { return order[comp[i]] < order[comp[j]] })
					sccs = append(sccs, comp)
				}
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return order[sccs[i][0]] < order[sccs[j][0]] })
	return sccs
}

// sccCyclic reports whether a component contains a cycle: any component of
// two or more nodes does; a singleton only if it calls itself.
func (g *Graph) sccCyclic(comp []string) bool {
	if len(comp) > 1 {
		return true
	}
	for _, c := range g.Calls {
		if c.Caller == comp[0] && c.Callee == comp[0] {
			return true
		}
	}
	return false
}

// ReconfigNode is the name of the synthetic node every reconfiguration
// point has an edge to.
const ReconfigNode = "reconfig"

// Edge is one numbered edge of the reconfiguration graph: either a call
// edge (i, Si) or a reconfiguration edge (j, R).
type Edge struct {
	Index  int
	Caller string
	// Callee is the called procedure for a call edge, or ReconfigNode.
	Callee string
	// Call is the call site Si (nil for reconfiguration edges).
	Call *ast.CallExpr
	// Point is the reconfiguration point (nil for call edges).
	Point *lang.Point
	Line  int
}

// IsReconfig reports whether this is an edge to the reconfig node.
func (e Edge) IsReconfig() bool { return e.Point != nil }

// RGraph is the reconfiguration graph.
type RGraph struct {
	Graph *Graph
	// Nodes lists the instrumented procedures, in declaration order: every
	// procedure on a path from main to a reconfiguration point.
	Nodes []string
	// Edges are numbered consecutively from 1, in declaration-then-source
	// order, matching the integers mh_capture records.
	Edges []Edge
}

// BuildReconfig derives the reconfiguration graph from a checked program.
// It refuses a program that declares no reconfiguration points (at main),
// or whose points sit in procedures unreachable from main: the
// scanner.ErrorList names every such point, at its mh.ReconfigPoint call.
func BuildReconfig(g *Graph, info *lang.Info) (*RGraph, error) {
	if len(info.Points) == 0 {
		return nil, g.Prog.Errorf(g.Prog.Funcs["main"].Decl.Pos(), "program declares no reconfiguration points")
	}
	pointFuncs := map[string]bool{}
	for _, pt := range info.Points {
		pointFuncs[pt.Func] = true
	}
	fromMain := g.ReachableFrom("main")
	var unreachable scanner.ErrorList
	for _, pt := range info.Points {
		if !fromMain[pt.Func] {
			unreachable.Add(g.Prog.Fset.Position(pt.Call.Pos()),
				fmt.Sprintf("reconfiguration point %s is in %s, which is unreachable from main", pt.Label, pt.Func))
		}
	}
	if unreachable != nil {
		return nil, unreachable
	}
	toPoint := g.CanReach(pointFuncs)

	inGraph := map[string]bool{}
	for name := range fromMain {
		if toPoint[name] {
			inGraph[name] = true
		}
	}

	rg := &RGraph{Graph: g}
	for _, name := range g.Prog.FuncOrder {
		if inGraph[name] {
			rg.Nodes = append(rg.Nodes, name)
		}
	}

	// Number the edges per node in source order: call edges to in-graph
	// callees, and reconfiguration edges, interleaved. Source order is the
	// order of the AST, not of token.Pos: the transform rewrites bodies in
	// place, and a moved statement keeps the position it was written at.
	type protoEdge struct {
		caller string
		callee string
		call   *ast.CallExpr
		point  *lang.Point
	}
	points := map[*ast.CallExpr]*lang.Point{}
	for i := range info.Points {
		points[info.Points[i].Call] = &info.Points[i]
	}
	var protos []protoEdge
	for _, name := range rg.Nodes {
		ast.Inspect(g.Prog.Funcs[name].Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pt := points[call]; pt != nil {
				protos = append(protos, protoEdge{caller: name, callee: ReconfigNode, point: pt})
			} else if id, ok := call.Fun.(*ast.Ident); ok && inGraph[id.Name] {
				protos = append(protos, protoEdge{caller: name, callee: id.Name, call: call})
			}
			return true
		})
	}
	for i, p := range protos {
		line := 0
		if p.call != nil {
			line = g.Prog.Fset.Position(p.call.Pos()).Line
		} else {
			line = g.Prog.Fset.Position(p.point.Call.Pos()).Line
		}
		rg.Edges = append(rg.Edges, Edge{
			Index:  i + 1,
			Caller: p.caller,
			Callee: p.callee,
			Call:   p.call,
			Point:  p.point,
			Line:   line,
		})
	}
	return rg, nil
}

func nodeIndex(nodes []string, name string) int {
	for i, n := range nodes {
		if n == name {
			return i
		}
	}
	return len(nodes)
}

// EdgesFrom returns the numbered edges originating at the named node.
func (rg *RGraph) EdgesFrom(name string) []Edge {
	var out []Edge
	for _, e := range rg.Edges {
		if e.Caller == name {
			out = append(out, e)
		}
	}
	return out
}

// EdgeForCall returns the edge whose call site is the given expression.
func (rg *RGraph) EdgeForCall(call *ast.CallExpr) (Edge, bool) {
	if call == nil {
		return Edge{}, false
	}
	for _, e := range rg.Edges {
		if e.Call == call {
			return e, true
		}
	}
	return Edge{}, false
}

// DOT renders a graph in Graphviz format, with stable ordering, for the
// Figure 6 reproduction.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph static_call_graph {\n")
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, c := range g.Calls {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", c.Caller, c.Callee, fmt.Sprintf("line %d", c.Line))
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the reconfiguration graph with its numbered edges.
func (rg *RGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph reconfiguration_graph {\n")
	for _, n := range rg.Nodes {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	fmt.Fprintf(&b, "  %q [shape=doublecircle];\n", ReconfigNode)
	for _, e := range rg.Edges {
		label := fmt.Sprintf("(%d, S%d)", e.Index, e.Line)
		if e.IsReconfig() {
			label = fmt.Sprintf("(%d, %s)", e.Index, e.Point.Label)
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.Caller, e.Callee, label)
	}
	b.WriteString("}\n")
	return b.String()
}

// String summarizes the reconfiguration graph one edge per line.
func (rg *RGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes: %s\n", strings.Join(rg.Nodes, " "))
	for _, e := range rg.Edges {
		if e.IsReconfig() {
			fmt.Fprintf(&b, "edge %d: %s -> reconfig (point %s, line %d)\n", e.Index, e.Caller, e.Point.Label, e.Line)
		} else {
			fmt.Fprintf(&b, "edge %d: %s -> %s (line %d)\n", e.Index, e.Caller, e.Callee, e.Line)
		}
	}
	return b.String()
}
