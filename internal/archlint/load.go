package archlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// pkg is one parsed and type-checked package of the module under analysis.
// Test files (_test.go) are excluded: the invariants archlint enforces are
// production-code invariants, and the regex walkers it replaces skipped
// tests too.
type pkg struct {
	path     string // import path
	rel      string // module-root-relative directory, "" for the root
	files    []*ast.File
	names    []string // file names relative to the module root, parallel to files
	tpkg     *types.Package
	info     *types.Info
	typeErrs []error  // type-check failures; non-empty disables deep passes
	imports  []string // module-internal import paths
}

// module is the whole loaded module: every non-test package, parsed and
// type-checked in dependency order.
type module struct {
	root   string
	path   string // module path from go.mod
	fset   *token.FileSet
	pkgs   []*pkg // topological order, dependencies first
	byPath map[string]*pkg
}

// stdImporter resolves non-module imports from the installed toolchain's
// export data. Shared across loads so repeated Run calls (tests, fixtures)
// reuse the stdlib cache.
var stdImporter = sync.OnceValue(func() types.Importer { return importer.Default() })

// moduleImporter resolves module-internal imports from the packages already
// checked in topological order and delegates everything else to the
// standard-library importer.
type moduleImporter struct {
	modPath string
	pkgs    map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("package %s failed to type-check", path)
		}
		return p, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		return nil, fmt.Errorf("module package %s not loaded (import cycle?)", path)
	}
	return stdImporter().Import(path)
}

// modulePath extracts the module path from the go.mod at root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				rest = p
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", filepath.Join(root, "go.mod"))
}

// loadModule parses every non-test package under root and type-checks the
// module-internal import graph in topological order. Parse and type errors
// do not abort the load: they are recorded per package so the analysis can
// report them as diagnostics.
func loadModule(root string) (*module, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	m := &module{
		root:   root,
		path:   modPath,
		fset:   token.NewFileSet(),
		byPath: map[string]*pkg{},
	}

	// Collect the .go files of every package directory. testdata trees,
	// hidden directories, and _test.go files are skipped.
	byDir := map[string][]string{} // relative dir -> file base names
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		byDir[rel] = append(byDir[rel], name)
		return nil
	})
	if err != nil {
		return nil, err
	}

	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	for _, rel := range dirs {
		importPath := modPath
		if rel != "" {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &pkg{path: importPath, rel: rel}
		sort.Strings(byDir[rel])
		seen := map[string]bool{}
		for _, base := range byDir[rel] {
			// Files are registered under module-root-relative names so
			// diagnostic positions render identically wherever the
			// analyzer is invoked from.
			relName := filepath.ToSlash(filepath.Join(rel, base))
			src, err := os.ReadFile(filepath.Join(root, rel, base))
			if err != nil {
				p.typeErrs = append(p.typeErrs, err)
				continue
			}
			f, err := parser.ParseFile(m.fset, relName, src, parser.ParseComments)
			if err != nil {
				p.typeErrs = append(p.typeErrs, err)
			}
			if f == nil {
				continue
			}
			p.files = append(p.files, f)
			p.names = append(p.names, relName)
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if (ip == modPath || strings.HasPrefix(ip, modPath+"/")) && !seen[ip] {
					seen[ip] = true
					p.imports = append(p.imports, ip)
				}
			}
		}
		if len(p.files) == 0 && len(p.typeErrs) == 0 {
			continue
		}
		sort.Strings(p.imports)
		m.pkgs = append(m.pkgs, p)
		m.byPath[p.path] = p
	}

	if err := m.topoSort(); err != nil {
		return nil, err
	}
	m.typeCheck()
	return m, nil
}

// topoSort reorders m.pkgs so that every package follows its
// module-internal dependencies. Import cycles are a hard error: the Go
// toolchain rejects them too, so hitting one means the analysis input is
// not a buildable module.
func (m *module) topoSort() error {
	const (
		white = iota
		grey
		black
	)
	color := map[string]int{}
	var order []*pkg
	var visit func(p *pkg, chain []string) error
	visit = func(p *pkg, chain []string) error {
		switch color[p.path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("import cycle: %s", strings.Join(append(chain, p.path), " -> "))
		}
		color[p.path] = grey
		for _, dep := range p.imports {
			if q, ok := m.byPath[dep]; ok && q != p {
				if err := visit(q, append(chain, p.path)); err != nil {
					return err
				}
			}
		}
		color[p.path] = black
		order = append(order, p)
		return nil
	}
	for _, p := range m.pkgs {
		if err := visit(p, nil); err != nil {
			return err
		}
	}
	m.pkgs = order
	return nil
}

// typeCheck checks every package in topological order, recording failures
// on the package rather than aborting: a broken package surfaces as AL001
// and is excluded from the type-sensitive passes.
func (m *module) typeCheck() {
	imp := &moduleImporter{modPath: m.path, pkgs: map[string]*types.Package{}}
	for _, p := range m.pkgs {
		if len(p.files) == 0 {
			imp.pkgs[p.path] = nil
			continue
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				p.typeErrs = append(p.typeErrs, err)
			},
		}
		tpkg, _ := conf.Check(p.path, m.fset, p.files, info)
		p.tpkg = tpkg
		p.info = info
		if len(p.typeErrs) > 0 {
			imp.pkgs[p.path] = nil
		} else {
			imp.pkgs[p.path] = tpkg
		}
	}
}
