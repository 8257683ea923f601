// Command unusedfuncs is the CI check that keeps replaced code from
// lingering: it lists the package-level functions declared under
// internal/ (internal/faults aside — a fault-injection toolkit is used
// from tests by design) that no non-test file of the module uses, and
// fails unless that list equals the allowlist below, one reason per name.
//
// Standard library only: go/parser and go/types with the "source"
// importer. Run from the repo root: go run ./scripts/unusedfuncs
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allow names the functions that may stay although only tests call them.
var allow = map[string]string{
	"repro/internal/identify.MergedAssignment":   "cross-package test helper: identify and align tests score identifier output through it",
	"repro/internal/text.Sentences":              "fuzzed tokenizer surface (FuzzSentences, TestSentences); extraction splits on paragraphs today",
	"repro/internal/extract.NormalizeEntityName": "canonical entity key from a surface form, for callers inventing entity universes (TestNormalizeEntityName)",
	"repro/internal/gdelt.IsConflict":            "CAMEO material-conflict quad class, the paper §1 forecasting use case (TestCameoDescription)",
	"repro/internal/httpx.EncodeJSON":            "the encoder's body as an owned copy: the reference the httpx, server and cluster tests hold the hand-written page envelopes byte-equal to",
}

const module = "repro"

func main() {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	declared := map[string]token.Position{} // internal/ functions, by pkgpath.Name
	used := map[string]bool{}

	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "scripts") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			fatal(err)
		}
		pkgPath := module
		if dir != "." {
			pkgPath += "/" + filepath.ToSlash(dir)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles { // non-test files matching the build constraints
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(pkgPath, fset, files, info); err != nil {
			fatal(err)
		}
		list := strings.HasPrefix(pkgPath, module+"/internal/") &&
			!strings.HasPrefix(pkgPath, module+"/internal/faults")
		// own maps each function declaration's extent to its key, so a
		// function calling itself does not count as used.
		type extent struct {
			from, to token.Pos
			key      string
		}
		var own []extent
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Name.Name == "main" || fd.Name.Name == "init" {
					continue
				}
				key := pkgPath + "." + fd.Name.Name
				own = append(own, extent{fd.Pos(), fd.End(), key})
				if list {
					declared[key] = fset.Position(fd.Pos())
				}
			}
		}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			key := fn.Pkg().Path() + "." + fn.Name()
			self := false
			for _, e := range own {
				if e.key == key && e.from <= id.Pos() && id.Pos() < e.to {
					self = true
				}
			}
			if !self {
				used[key] = true
			}
		}
	}

	var unused []string
	for key := range declared {
		if !used[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	bad := false
	for _, key := range unused {
		if _, ok := allow[key]; !ok {
			fmt.Fprintf(os.Stderr, "unusedfuncs: %s (%s) is used by no non-test file: delete it, move it to a _test.go file, or allowlist it with a reason\n",
				key, declared[key])
			bad = true
		}
	}
	for key := range allow {
		if _, ok := declared[key]; !ok || used[key] {
			fmt.Fprintf(os.Stderr, "unusedfuncs: allowlist entry %s is stale (the function is gone or is used now)\n", key)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
	fmt.Printf("unusedfuncs: %d functions under internal/ checked, %d allowlisted\n", len(declared), len(unused))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unusedfuncs:", err)
	os.Exit(2)
}
