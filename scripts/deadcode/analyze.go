package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// node is one declaration: a package-level func, type, var or const, a
// method, or a struct field.
type node struct {
	pos   token.Pos
	name  string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	k     *pkg
	test  bool // declared in a _test.go file
	field bool
	owner token.Pos // a method's receiver type, a field's struct type
	root  bool      // reached whenever its package is linked
	obj   types.Object

	edges  []token.Pos        // what its syntax refers to
	reads  []token.Pos        // fields it reads
	writes []token.Pos        // fields it writes
	wholes [2][]types.Type    // values it hands to an encoder or formatter (read), a decoder (write)
	ifaces []*types.Interface // interfaces its syntax spells
	calls  []call
	params map[*types.Var]int // a func's parameters, by index
}

// call is one call site, kept for the encoder-sink analysis.
type call struct {
	callee types.Object
	args   []callArg
}

type callArg struct {
	typ   types.Type
	param int // the caller's parameter the argument is, or -1
}

// A sink reads or writes every field of the value handed to it.
const (
	readSink  = iota // an encoder or formatter
	writeSink        // a decoder
)

// graph holds every declaration of the module, keyed by the position of
// its name: both checks of a package (with and without its tests) parse
// the same files, so the key is the same in each.
type graph struct {
	*program
	nodes map[token.Pos]*node
	// Module functions that hand a parameter to a sink, per kind.
	sinks [2]map[token.Pos]map[int]bool
	// Interfaces of the standard library, by method name.
	stdIfaces map[string][]*types.Interface
	msets     map[*types.TypeName]*types.MethodSet
}

func (p *program) graph() *graph {
	g := &graph{
		program: p,
		nodes:   map[token.Pos]*node{},
		sinks:   [2]map[token.Pos]map[int]bool{{}, {}},
		msets:   map[*types.TypeName]*types.MethodSet{},
	}
	for _, k := range p.pkgs {
		for _, f := range k.files {
			g.addFile(k, f, k.info, false)
		}
		info := k.testInfo
		if info == nil {
			info = k.info
		}
		for _, f := range k.testFiles {
			g.addFile(k, f, info, true)
		}
		for _, f := range k.xtestFiles {
			g.addFile(k, f, k.xtestInfo, true)
		}
	}
	g.solveSinks()
	g.stdIfaces = map[string][]*types.Interface{}
	for t := range p.stdSet {
		scope := t.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					byMethod(g.stdIfaces, it)
				}
			}
		}
	}
	return g
}

// byMethod files it in m under each of its method names.
func byMethod(m map[string][]*types.Interface, it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		m[name] = append(m[name], it)
	}
}

func (g *graph) add(k *pkg, id *ast.Ident, name string, test bool, info *types.Info) *node {
	n := &node{pos: id.Pos(), name: k.short + "." + name, k: k, test: test, obj: info.Defs[id]}
	g.nodes[id.Pos()] = n
	return n
}

func (g *graph) addFile(k *pkg, f *ast.File, info *types.Info, test bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			var owner token.Pos
			if d.Recv != nil && len(d.Recv.List) == 1 {
				if id := recvType(d.Recv.List[0].Type); id != nil {
					name = id.Name + "." + name
					if obj := info.Uses[id]; obj != nil {
						owner = obj.Pos()
					}
				}
			}
			n := g.add(k, d.Name, name, test, info)
			n.owner = owner
			n.root = d.Recv == nil && d.Name.Name == "init" || d.Body == nil
			n.params = map[*types.Var]int{}
			if sig, ok := n.obj.(*types.Func); ok {
				params := sig.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					n.params[params.At(i)] = i
				}
			}
			g.walk(d, n, info)
		case *ast.GenDecl:
			var group []*node
			iota := false
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					n := g.add(k, s.Name, s.Name.Name, test, info)
					g.walk(s, n, info)
					if st, ok := s.Type.(*ast.StructType); ok {
						g.addFields(k, n, s.Name.Name, st, info, test)
					}
				case *ast.ValueSpec:
					if len(s.Values) == 0 || usesIota(s) {
						iota = true
					}
					for _, id := range s.Names {
						n := g.add(k, id, id.Name, test, info)
						n.root = id.Name == "_"
						g.walk(s, n, info)
						group = append(group, n)
					}
				}
			}
			// An iota group is one declaration: dropping a member renumbers
			// the rest.
			if d.Tok == token.CONST && iota {
				for _, a := range group {
					for _, b := range group {
						a.edges = append(a.edges, b.pos)
					}
				}
			}
		}
	}
}

func (g *graph) addFields(k *pkg, owner *node, typeName string, st *ast.StructType, info *types.Info, test bool) {
	// An embedded field is read by every promotion through it, which no
	// identifier spells: only named fields are nodes.
	for _, fl := range st.Fields.List {
		for _, id := range fl.Names {
			n := g.add(k, id, typeName+"."+id.Name, test, info)
			n.field = true
			n.owner = owner.pos
		}
	}
}

// walk records what the syntax x of declaration n refers to. A field is
// written by an assignment or inc/dec whose target it is or holds (a
// sub-field or element of it), by a composite-literal key and by &x.F; an
// assignment's target alone is not read.
func (g *graph) walk(x ast.Node, n *node, info *types.Info) {
	targets := map[*ast.Ident]bool{}
	written := map[*ast.Ident]bool{}
	held := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				written[x.Sel] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	lhs := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			targets[s.Sel] = true
		}
		held(e)
	}
	ast.Inspect(x, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				held(x.X)
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						targets[id], written[id] = true, true
					}
				}
			}
		case *ast.InterfaceType:
			if tv, ok := info.Types[x]; ok {
				n.ifaces = append(n.ifaces, tv.Type.Underlying().(*types.Interface))
			}
		case *ast.CallExpr:
			g.addCall(x, n, info)
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				return true
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if !targets[x] {
					n.reads = append(n.reads, obj.Pos())
				}
				if written[x] {
					n.writes = append(n.writes, obj.Pos())
				}
				return true
			}
			n.edges = append(n.edges, obj.Pos())
		}
		return true
	})
}

func (g *graph) addCall(c *ast.CallExpr, n *node, info *types.Info) {
	var callee types.Object
	switch fun := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		callee = info.Uses[fun]
	case *ast.SelectorExpr:
		callee = info.Uses[fun.Sel]
	}
	if _, ok := callee.(*types.Func); !ok {
		return
	}
	cl := call{callee: callee}
	for _, a := range c.Args {
		arg := callArg{param: -1}
		if tv, ok := info.Types[a]; ok {
			arg.typ = tv.Type
		}
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if j, ok := n.params[v]; ok {
					arg.param = j
				}
			}
		}
		cl.args = append(cl.args, arg)
	}
	n.calls = append(n.calls, cl)
}

// sinkArg reports whether argument i of c reaches a sink of the kind: an
// encoder or formatter, or a json or gob decoder.
func (g *graph) sinkArg(kind int, c call, i int) bool {
	fn := c.callee.(*types.Func)
	sig := fn.Type().(*types.Signature)
	if fn.Pkg() != nil {
		path, recv, name := fn.Pkg().Path(), sig.Recv() != nil, fn.Name()
		if kind == writeSink {
			switch path {
			case "encoding/json":
				return !recv && name == "Unmarshal" && i == 1 || recv && name == "Decode" && i == 0
			case "encoding/gob":
				return recv && name == "Decode" && i == 0
			}
		} else {
			switch path {
			case "fmt", "log":
				return true
			case "encoding/json":
				return i == 0 && (!recv && (name == "Marshal" || name == "MarshalIndent") || recv && name == "Encode")
			case "encoding/gob":
				return i == 0 && recv && (name == "Encode" || name == "EncodeValue")
			}
		}
	}
	params := g.sinks[kind][fn.Pos()]
	if params == nil {
		return false
	}
	last := sig.Params().Len() - 1
	if sig.Variadic() && i > last {
		i = last
	}
	return params[i]
}

// solveSinks finds, to a fixed point, the module functions that hand an
// interface-typed parameter to a sink, then records the static types each
// declaration hands to one.
func (g *graph) solveSinks() {
	for kind := range g.sinks {
		sinks := g.sinks[kind]
		for changed := true; changed; {
			changed = false
			for _, n := range g.nodes {
				for _, c := range n.calls {
					for i, a := range c.args {
						if a.param < 0 || !g.sinkArg(kind, c, i) {
							continue
						}
						fp := n.pos
						if sinks[fp] == nil {
							sinks[fp] = map[int]bool{}
						}
						if !sinks[fp][a.param] {
							sinks[fp][a.param] = true
							changed = true
						}
					}
				}
			}
		}
		for _, n := range g.nodes {
			for _, c := range n.calls {
				for i, a := range c.args {
					if a.typ != nil && !types.IsInterface(a.typ) && g.sinkArg(kind, c, i) {
						n.wholes[kind] = append(n.wholes[kind], a.typ)
					}
				}
			}
		}
	}
}

// reach walks the graph from roots. A method joins when its receiver type
// is reached and implements an interface, of the standard library or
// spelled by reached code, that has the method.
func (g *graph) reach(roots []*node) map[*node]bool {
	seen := map[*node]bool{}
	var queue []*node
	push := func(n *node) {
		if n != nil && !seen[n] {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	for _, n := range roots {
		push(n)
	}
	for {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range n.edges {
				push(g.nodes[e])
			}
		}
		ifaces := map[string][]*types.Interface{}
		for n := range seen {
			for _, it := range n.ifaces {
				byMethod(ifaces, it)
			}
		}
		for n := range seen {
			tn, ok := n.obj.(*types.TypeName)
			if !ok || n.field || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := g.msets[tn]
			if ms == nil {
				ms = types.NewMethodSet(ptr)
				g.msets[tn] = ms
			}
			for i := 0; i < ms.Len(); i++ {
				m := g.nodes[ms.At(i).Obj().Pos()]
				if m == nil || seen[m] {
					continue
				}
				name := ms.At(i).Obj().Name()
				for _, it := range append(g.stdIfaces[name], ifaces[name]...) {
					if types.Implements(ptr, it) {
						push(m)
						break
					}
				}
			}
		}
		if len(queue) == 0 {
			return seen
		}
	}
}

// fields is the set of fields the reached declarations read (kind
// readSink) or write (writeSink).
func (g *graph) fields(kind int, reached map[*node]bool) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	seen := map[types.Type]bool{}
	for n := range reached {
		named := n.reads
		if kind == writeSink {
			named = n.writes
		}
		for _, r := range named {
			out[r] = true
		}
		for _, t := range n.wholes[kind] {
			whole(t, seen, out)
		}
	}
	return out
}

// whole marks every field a value of type t holds, transitively.
func whole(t types.Type, seen map[types.Type]bool, out map[token.Pos]bool) {
	switch t := t.(type) {
	case *types.Named:
		if seen[t] {
			return
		}
		seen[t] = true
		whole(t.Underlying(), seen, out)
	case *types.Pointer:
		whole(t.Elem(), seen, out)
	case *types.Slice:
		whole(t.Elem(), seen, out)
	case *types.Array:
		whole(t.Elem(), seen, out)
	case *types.Map:
		whole(t.Key(), seen, out)
		whole(t.Elem(), seen, out)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			out[t.Field(i).Pos()] = true
			whole(t.Field(i).Type(), seen, out)
		}
	}
}

// finding is one declaration the gate reports.
type finding struct {
	Pos     token.Position // Filename relative to the module root
	Name    string
	Field   bool
	Write   bool     // a field the binaries read and never write
	Bench   bool     // bench/ reaches (reads, writes) it
	Testers []string // else the packages whose tests reach (read, write) it
	own     string   // its package's short name
}

func (f finding) String() string {
	verb, verbs := "reach", "reaches"
	switch {
	case f.Write:
		verb, verbs = "write", "writes"
	case f.Field:
		verb, verbs = "read", "reads"
	}
	var why string
	switch {
	case f.Bench:
		why = "only bench/ " + verbs + " it"
	case len(f.Testers) > 0:
		why = "only the tests of " + strings.Join(f.Testers, ", ") + " " + verb + " it"
	default:
		why = "nothing " + verbs + " it"
	}
	return fmt.Sprintf("%s:%d %s: %s", f.Pos.Filename, f.Pos.Line, f.Name, why)
}

func (f finding) sameClass(o finding) bool {
	return f.Bench == o.Bench && strings.Join(f.Testers, ",") == strings.Join(o.Testers, ",")
}

// analyze classifies every declaration and field of internal/.
func (p *program) analyze() []finding {
	g := p.graph()
	tier := func(keep func(k *pkg) bool) []*node {
		linked := map[string]bool{}
		for _, k := range p.pkgs {
			if keep(k) {
				linked[k.ImportPath] = true
				for _, d := range k.Deps {
					linked[d] = true
				}
			}
		}
		var roots []*node
		for _, n := range g.nodes {
			if n.test || !linked[n.k.ImportPath] {
				continue
			}
			if n.root || keep(n.k) && n.name == n.k.short+".main" {
				roots = append(roots, n)
			}
		}
		return roots
	}
	isMain := func(k *pkg, dirs ...string) bool {
		for _, d := range dirs {
			if k.Name == "main" && (k.rel == d || strings.HasPrefix(k.rel, d+"/")) {
				return true
			}
		}
		return false
	}
	live := g.reach(tier(func(k *pkg) bool { return isMain(k, "cmd", "examples") }))
	bench := g.reach(append(tier(func(k *pkg) bool { return isMain(k, "bench") }), keys(live)...))
	// Tests link any package: every package-level root counts.
	allRoots := tier(func(*pkg) bool { return true })
	tested := map[string]map[*node]bool{}
	for _, k := range p.pkgs {
		roots := append([]*node{}, allRoots...)
		for _, n := range g.nodes {
			if n.test && n.k == k {
				roots = append(roots, n)
			}
		}
		if len(roots) > len(allRoots) {
			tested[k.short] = g.reach(roots)
		}
	}
	var liveFields, benchFields [2]map[token.Pos]bool
	testFields := [2]map[string]map[token.Pos]bool{{}, {}}
	for kind := range liveFields {
		liveFields[kind], benchFields[kind] = g.fields(kind, live), g.fields(kind, bench)
		for q, r := range tested {
			testFields[kind][q] = g.fields(kind, r)
		}
	}
	// tiers fills f's tier from what bench/ and each package's tests reach,
	// or read or write, of kind.
	tiers := func(f *finding, pos token.Pos, n *node, kind int) {
		if n.field {
			f.Bench = benchFields[kind][pos]
			for q, r := range testFields[kind] {
				if r[pos] {
					f.Testers = append(f.Testers, q)
				}
			}
		} else {
			f.Bench = bench[n]
			for q, r := range tested {
				if r[n] {
					f.Testers = append(f.Testers, q)
				}
			}
		}
		if f.Bench {
			f.Testers = nil
		}
		sort.Strings(f.Testers)
		f.Pos = p.fset.Position(pos)
		f.Pos.Filename = p.relFile(f.Pos.Filename)
	}

	byPos := map[token.Pos]finding{}
	var written []finding
	for pos, n := range g.nodes {
		if n.test || !strings.HasPrefix(n.k.rel, "internal/") {
			continue
		}
		f := finding{Name: n.name, Field: n.field, own: n.k.short}
		switch {
		case !n.field:
			if live[n] || n.root {
				continue
			}
			tiers(&f, pos, n, readSink)
		case !n.obj.Exported() || g.nodes[n.owner] == nil || !live[g.nodes[n.owner]]:
			continue
		case !liveFields[readSink][pos]:
			tiers(&f, pos, n, readSink)
		case !liveFields[writeSink][pos]:
			// Read but never written: the binaries see its zero value.
			f.Write = true
			tiers(&f, pos, n, writeSink)
			written = append(written, f)
			continue
		default:
			continue
		}
		byPos[pos] = f
	}
	out := written
	for pos, f := range byPos {
		// A method of a reported type goes with it.
		if owner, ok := byPos[g.nodes[pos].owner]; ok && !f.Field && owner.sameClass(f) {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

func (p *program) relFile(name string) string {
	if r, ok := strings.CutPrefix(name, p.root+"/"); ok {
		return r
	}
	return name
}

func keys(m map[*node]bool) []*node {
	var out []*node
	for n := range m {
		out = append(out, n)
	}
	return out
}

// recvType returns the type name of a receiver or embedded field
// expression: T, *T, pkg.T or T[P].
func recvType(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

func usesIota(s *ast.ValueSpec) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}
