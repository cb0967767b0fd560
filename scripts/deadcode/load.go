package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// listed is the part of `go list -json` the loader reads.
type listed struct {
	Dir, ImportPath, Name     string
	GoFiles                   []string
	TestGoFiles, XTestGoFiles []string
	Deps                      []string
	Module                    *struct{ Main bool }
}

// pkg is one module package, checked without and with its tests.
type pkg struct {
	listed
	rel   string // directory relative to the module root, slash-separated
	short string // the name findings and the allowlist use for it
	files []*ast.File
	types *types.Package
	info  *types.Info
	// The package with its in-package tests, and its external tests.
	testFiles, xtestFiles []*ast.File
	testInfo, xtestInfo   *types.Info
}

// program is the loaded module.
type program struct {
	root   string
	fset   *token.FileSet
	pkgs   []*pkg // in dependency order
	byPath map[string]*pkg
	std    types.Importer
	stdSet map[*types.Package]bool // every standard package the module reaches
}

// load lists, parses and type-checks the module rooted at dir.
func load(dir string) (*program, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, errb.String())
	}
	// The standard library is checked from source; its cgo files would need
	// a C toolchain, and every package it uses them in has a pure-Go twin.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &program{
		root:   root,
		fset:   fset,
		byPath: map[string]*pkg{},
		std:    importer.ForCompiler(fset, "source", nil),
		stdSet: map[*types.Package]bool{},
	}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, err
		}
		if l.Module == nil || !l.Module.Main {
			continue
		}
		rel, err := filepath.Rel(root, l.Dir)
		if err != nil {
			return nil, err
		}
		k := &pkg{listed: l, rel: filepath.ToSlash(rel)}
		k.short = filepath.Base(l.ImportPath)
		if k.files, err = p.parse(l.Dir, l.GoFiles); err != nil {
			return nil, err
		}
		if k.testFiles, err = p.parse(l.Dir, l.TestGoFiles); err != nil {
			return nil, err
		}
		if k.xtestFiles, err = p.parse(l.Dir, l.XTestGoFiles); err != nil {
			return nil, err
		}
		p.pkgs = append(p.pkgs, k)
		p.byPath[l.ImportPath] = k
	}
	if len(p.pkgs) == 0 {
		return nil, errors.New("no packages in the main module")
	}
	// Non-test first, in dependency order: every test variant imports them.
	for _, k := range p.pkgs {
		var err error
		k.types, k.info, err = p.check(k.ImportPath, k.files, nil)
		if err != nil {
			return nil, err
		}
	}
	for _, k := range p.pkgs {
		self := k.types
		if len(k.testFiles) > 0 {
			var err error
			self, k.testInfo, err = p.check(k.ImportPath, append(append([]*ast.File{}, k.files...), k.testFiles...), nil)
			if err != nil {
				return nil, err
			}
		}
		if len(k.xtestFiles) > 0 {
			var err error
			_, k.xtestInfo, err = p.check(k.ImportPath+"_test", k.xtestFiles, map[string]*types.Package{k.ImportPath: self})
			if err != nil {
				return nil, err
			}
		}
	}
	for _, k := range p.pkgs {
		p.collectStd(k.types)
	}
	return p, nil
}

func (p *program) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path. Imports resolve to the module's
// checked packages (override first), then to the standard library.
func (p *program) check(path string, files []*ast.File, override map[string]*types.Package) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []string
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if t, ok := override[ip]; ok {
				return t, nil
			}
			if k, ok := p.byPath[ip]; ok && k.types != nil {
				return k.types, nil
			}
			return p.std.Import(ip)
		}),
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err.Error())
			}
		},
	}
	t, _ := conf.Check(path, p.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(errs, "\n\t"))
	}
	return t, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collectStd records every non-module package t reaches.
func (p *program) collectStd(t *types.Package) {
	for _, dep := range t.Imports() {
		if _, mod := p.byPath[dep.Path()]; mod || p.stdSet[dep] {
			continue
		}
		p.stdSet[dep] = true
		p.collectStd(dep)
	}
}
