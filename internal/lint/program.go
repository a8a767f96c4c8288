package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the interprocedural analyzers run on:
// every analyzed package, the call graph over them, the hot-path entry
// points, and the per-package allow directives (which double as the
// amortized-function registry: a //simlint:allow hotalloc directive on a
// function declaration marks the whole function as an amortized-growth or
// setup barrier the hot-path traversal stops at).
type Program struct {
	Pkgs    []*Package
	Graph   *CallGraph
	Entries []EntryPoint

	allows map[*Package]*allowSet
	byFile map[string]*Package
}

// EntryPoint is one registered hot-path root: a function the engine runs
// per event, per packet, or per pooled flow object.
type EntryPoint struct {
	Node *FuncNode
	// Why names the registry rule that matched ("sim.Handler event
	// handler", "per-packet fabric.Sink", ...).
	Why string
}

// BuildProgram constructs the interprocedural view over the given
// packages. Callers choose the scope: the driver passes the engine
// packages, fixtures pass a single test package.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:   pkgs,
		Graph:  buildCallGraph(pkgs),
		allows: map[*Package]*allowSet{},
		byFile: map[string]*Package{},
	}
	for _, pkg := range pkgs {
		prog.allows[pkg] = parseAllowDirectives(pkg.Fset, pkg.Files)
		for _, f := range pkg.Files {
			prog.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	prog.Entries = findEntryPoints(prog)
	return prog
}

// pkgAt maps a diagnostic position back to its package (for allow
// filtering of program-level diagnostics).
func (prog *Program) pkgAt(fset *token.FileSet, pos token.Pos) *Package {
	return prog.byFile[fset.Position(pos).Filename]
}

// lookupIface finds a named interface type by import path and name,
// searching the analyzed packages and their transitive imports (fixture
// stubs resolve under the real import paths, so the same lookup serves
// both the engine and testdata).
func (prog *Program) lookupIface(path, name string) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if iface := find(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	for _, pkg := range prog.Pkgs {
		if iface := find(pkg.Types); iface != nil {
			return iface
		}
	}
	return nil
}

// findEntryPoints applies the hot-path registry to the call graph. The
// registry names the engine's steady-state surfaces:
//
//   - event handlers: OnEvent methods on types implementing sim.Handler —
//     everything the scheduler dispatches, including the port's
//     serialization end and delivery (fabric.Port.OnEvent);
//   - per-packet paths: Receive methods implementing fabric.Sink, and the
//     Enqueue/Dequeue/Empty of fabric.Queue disciplines;
//   - the port transmit path: fabric.Port.Enqueue (and through it kick);
//   - pooled flow-state surfaces: Get/New*/Retire* on Arena and the
//     per-event-list pools, plus every recycle method — one flow's worth
//     of state must come from the pool, not the heap.
func findEntryPoints(prog *Program) []EntryPoint {
	handler := prog.lookupIface(simPkgPath, "Handler")
	sink := prog.lookupIface(fabricPkgPath, "Sink")
	queue := prog.lookupIface(fabricPkgPath, "Queue")

	var out []EntryPoint
	for _, n := range prog.Graph.Nodes {
		if n.Decl == nil || n.Obj == nil {
			continue
		}
		sig, ok := n.Obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		name := n.Obj.Name()
		switch {
		case name == "OnEvent" && implementsIface(recv, handler):
			out = append(out, EntryPoint{n, "sim.Handler event handler"})
		case name == "Receive" && implementsIface(recv, sink):
			out = append(out, EntryPoint{n, "per-packet fabric.Sink"})
		case (name == "Enqueue" || name == "Dequeue") && implementsIface(recv, queue):
			out = append(out, EntryPoint{n, "fabric.Queue discipline"})
		case name == "Enqueue" && namedIn(recv, fabricPkgPath, "Port"):
			out = append(out, EntryPoint{n, "port transmit path"})
		case isPoolHotMethod(recv, name):
			out = append(out, EntryPoint{n, "flow-state pool surface"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node.Name < out[j].Node.Name })
	return out
}

// implementsIface reports whether t (or *t) implements iface.
func implementsIface(t types.Type, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// isPoolHotMethod matches the pooled flow-state surfaces: methods on
// *Pool / *Arena types that hand out or take back state, and recycle
// methods anywhere (they re-initialize pooled objects in place).
func isPoolHotMethod(recv types.Type, name string) bool {
	if name == "recycle" {
		return true
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj().Name()
	if tn != "Arena" && !strings.HasSuffix(tn, "Pool") {
		return false
	}
	switch {
	case name == "Get", name == "take", name == "put",
		strings.HasPrefix(name, "New"), strings.HasPrefix(name, "Retire"):
		return true
	}
	return false
}

// hotallocBarrier reports whether node is registered as an amortized-
// growth or setup function: its declaration (or the line above) carries a
// justified //simlint:allow hotalloc directive. The hot-path traversal
// stops at barriers and skips their allocation sites.
func (prog *Program) hotallocBarrier(node *FuncNode) bool {
	if node.Decl == nil {
		return false
	}
	allows := prog.allows[node.Pkg]
	if allows == nil {
		return false
	}
	m := allows.byAnalyzer["hotalloc"]
	if len(m) == 0 {
		return false
	}
	line := node.Pkg.Fset.Position(node.Decl.Pos()).Line
	if d, ok := m[line]; ok {
		d.used = true
		return true
	}
	return false
}

// ProgramPass carries one interprocedural analyzer's view of the program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Fset     *token.FileSet

	diags []Diagnostic
}

// Reportf records a finding at pos, with an optional call chain.
func (p *ProgramPass) Reportf(pos token.Pos, chain []string, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// RunProgram applies the interprocedural analyzers to a built program,
// filters findings through each owning package's //simlint:allow
// directives, and returns the survivors sorted by position.
func RunProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(prog.Pkgs) == 0 {
		return nil, nil
	}
	fset := prog.Pkgs[0].Fset
	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Prog: prog, Fset: fset}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range pass.diags {
			pkg := prog.pkgAt(fset, d.Pos)
			if pkg != nil {
				if m := prog.allows[pkg].byAnalyzer[a.Name]; m != nil {
					if dir, ok := m[fset.Position(d.Pos).Line]; ok {
						dir.used = true
						continue
					}
				}
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
