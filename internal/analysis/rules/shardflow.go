package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alock/internal/analysis"
	"alock/internal/analysis/callgraph"
)

// ShardflowRoots name the windowed executor's per-shard dispatch: every
// function statically reachable from these (or from a thread body handed
// to Spawn) runs on a shard's private timeline during a parallel window.
// If a root fails to resolve the analyzer reports it, so a rename cannot
// silently turn the check off.
var ShardflowRoots = []string{
	"alock/internal/sim.(*shard).runWindow",
	"alock/internal/sim.(*Engine).runWindowed",
}

// Shardflow is the interprocedural twin of shardmem and the static twin
// of the runtime access audit (sim.WithAccessAudit): no function reachable
// from the per-shard dispatch may resolve memory words directly. Where
// shardmem checks every function in the sim/locks scopes one body at a
// time, shardflow follows the call graph — through any package — from the
// dispatch roots and the thread bodies registered via (*Engine).Spawn /
// (*Cluster).Spawn, including go and defer edges. Traversal stops at the
// sanctioned accessor set (ShardmemSanctioned): those functions route
// every access through mem.Space, whose audit hook enforces shard
// ownership at runtime. Everything else that touches
// (*mem.Space).WordAddr / Region or (*mem.Region).WordAddr on a dispatch
// path is a finding. Test files are skipped.
var Shardflow = NewShardflow(ShardflowRoots)

// NewShardflow builds the analyzer for an explicit root set; fixtures use
// it to model the dispatch shape under a test import path.
func NewShardflow(roots []string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "shardflow",
		Doc:       "code reachable from per-shard dispatch must not resolve memory words outside the sanctioned accessors",
		RunModule: func(mp *analysis.ModulePass) error { return runShardflow(mp, roots) },
	}
}

// shardflowExemptPkgs are packages whose bodies are never reported even
// when reached: the memory substrate itself (its internals implement the
// audited accessors) and the wall-clock runtime (its threads run on real
// time with no shard timelines to isolate — the Ctx-verb methods there
// are the moral equivalent of the sanctioned set, reached through
// api.Ctx interface dispatch).
var shardflowExemptPkgs = map[string]bool{
	memPkgPath:          true,
	"alock/internal/rt": true,
}

func runShardflow(mp *analysis.ModulePass, roots []string) error {
	g := moduleGraph(mp)
	var rootNodes []*callgraph.Node
	rootPkgs := map[string]bool{}
	for _, r := range roots {
		n := g.Lookup(r)
		if n == nil {
			mp.Reportf(token.NoPos,
				"shard-dispatch root %q does not resolve to a function in the module (renamed? update rules.ShardflowRoots)", r)
			continue
		}
		rootNodes = append(rootNodes, n)
		if n.Pkg != nil {
			rootPkgs[n.Pkg.ImportPath] = true
		}
	}
	rootNodes = append(rootNodes, spawnBodies(mp, g, rootPkgs)...)
	reached := reachableSharded(rootNodes)
	for _, n := range g.Nodes() {
		if !reached[n] || n.Body() == nil || n.Pkg == nil {
			continue
		}
		if shardflowExemptPkgs[n.Pkg.ImportPath] {
			continue
		}
		if strings.HasSuffix(mp.Fset.Position(n.Pos()).Filename, "_test.go") {
			continue
		}
		scanSubstrateAccess(mp, n)
	}
	return nil
}

// spawnBodies resolves the function values handed to a Spawn method of
// the engine package that owns the dispatch roots, outside test files:
// thread bodies run on coroutines that shard windows resume through the
// function value iter.Pull returns, which the call graph cannot see
// through, so they are roots in their own right. Spawn methods of other
// runtimes (the wall-clock Cluster) schedule no shard windows and are
// ignored.
func spawnBodies(mp *analysis.ModulePass, g *callgraph.Graph, rootPkgs map[string]bool) []*callgraph.Node {
	var out []*callgraph.Node
	for _, pkg := range mp.Pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			if strings.HasSuffix(mp.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Spawn" {
					return true
				}
				selection := info.Selections[sel]
				if selection == nil || selection.Kind() != types.MethodVal {
					return true
				}
				recv := namedRecv(selection)
				if recv == nil || recv.Obj().Pkg() == nil || !rootPkgs[recv.Obj().Pkg().Path()] {
					return true
				}
				out = append(out, g.ValuesOf(pkg, call.Args[1])...)
				return true
			})
		}
	}
	return out
}

// reachableSharded walks out-edges (including go and defer) from the
// roots, refusing to enter the sanctioned accessor set: a sanctioned
// function's own substrate accesses are audited at runtime and are not
// findings here.
func reachableSharded(roots []*callgraph.Node) map[*callgraph.Node]bool {
	reached := map[*callgraph.Node]bool{}
	var stack []*callgraph.Node
	for _, r := range roots {
		if r != nil && !reached[r] && !sanctionedNode(r) {
			reached[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if e.To == nil || reached[e.To] || sanctionedNode(e.To) {
				continue
			}
			reached[e.To] = true
			stack = append(stack, e.To)
		}
	}
	return reached
}

// sanctionedNode matches a node against ShardmemSanctioned by its
// package-stripped name, keeping the set package-agnostic the same way
// shardmem's per-body check is.
func sanctionedNode(n *callgraph.Node) bool {
	name := n.Name()
	if n.Pkg != nil {
		name = strings.TrimPrefix(name, n.Pkg.ImportPath+".")
	}
	return ShardmemSanctioned[name]
}

// scanSubstrateAccess reports direct word resolution inside one reached
// node. Nested literals are skipped: each is its own node, scanned iff
// it is itself reachable.
func scanSubstrateAccess(mp *analysis.ModulePass, n *callgraph.Node) {
	info := n.Pkg.TypesInfo
	shallowInspect(n.Body(), func(node ast.Node) {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection := info.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return
		}
		recv := namedRecv(selection)
		method := selection.Obj().Name()
		switch {
		case isPkgType(recv, memPkgPath, "Region") && method == "WordAddr":
			mp.Reportf(sel.Pos(),
				"(*mem.Region).WordAddr on a shard-dispatch path bypasses the Space access audit: resolve through a sanctioned accessor")
		case isPkgType(recv, memPkgPath, "Space") && (method == "WordAddr" || method == "Region"):
			mp.Reportf(sel.Pos(),
				"mem.Space.%s reachable from per-shard dispatch (in %s): cross-shard words must go through the verb protocol",
				method, n.Name())
		}
	})
}
