package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under t.TempDir: keys are
// slash-separated paths relative to the module root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir for %s: %v", rel, err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatalf("write %s: %v", rel, err)
		}
	}
	return root
}

// pkgPaths summarizes a module's units for order-sensitive assertions.
func pkgPaths(mod *Module) []string {
	var paths []string
	for _, u := range mod.Units {
		paths = append(paths, u.PkgPath)
	}
	return paths
}

// TestLoadModuleMissingLocalImport: an import of a module-local path
// with no directory behind it must surface as a load error, not a
// panic or a silently empty unit.
func TestLoadModuleMissingLocalImport(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module brokenmod\n",
		"a/a.go": "package a\n\nimport \"brokenmod/missing\"\n\nvar _ = missing.X\n",
	})
	_, err := LoadModule(root)
	if err == nil {
		t.Fatal("LoadModule succeeded despite missing module-local import")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Errorf("error does not name the missing package: %v", err)
	}
}

// TestLoadModuleImportCycle: module-local import cycles are reported,
// not looped on.
func TestLoadModuleImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module cyclemod\n",
		"a/a.go": "package a\n\nimport \"cyclemod/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nimport \"cyclemod/a\"\n\nvar Y = a.X\n",
	})
	_, err := LoadModule(root)
	if err == nil {
		t.Fatal("LoadModule succeeded despite an import cycle")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error does not report the cycle: %v", err)
	}
}

// TestLoadModuleHonorsBuildTags: platform-split file pairs (a
// //go:build unix file plus its !unix stub, both declaring the same
// function) must type-check as one coherent package under the
// loader's fixed linux/amd64 view, not redeclare each other.
func TestLoadModuleHonorsBuildTags(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tagmod\n",
		"a/a.go": "package a\n\nvar X = watch()\n",
		"a/a_unix.go": "//go:build unix\n\npackage a\n\n" +
			"func watch() int { return 1 }\n",
		"a/a_other.go": "//go:build !unix\n\npackage a\n\n" +
			"func watch() int { return 0 }\n",
	})
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	unit := mod.Units[0]
	if len(unit.Files) != 2 {
		t.Fatalf("unit has %d files, want a.go + the unix half", len(unit.Files))
	}
	for _, f := range unit.Files {
		name := mod.Fset.File(f.Pos()).Name()
		if strings.HasSuffix(name, "a_other.go") {
			t.Fatal("!unix file loaded on the linux view")
		}
	}
}

// TestLoadDirOnlyExternalTests: a directory holding nothing but an
// external _test package still yields exactly one unit, and no phantom
// library unit.
func TestLoadDirOnlyExternalTests(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":            "module extonly\n",
		"spec/spec_test.go": "package spec_test\n\nfunc Double(n int) int { return 2 * n }\n",
	})
	mod, err := LoadDir(filepath.Join(root, "spec"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if got, want := pkgPaths(mod), []string{"extonly/spec_test"}; !equalStrings(got, want) {
		t.Fatalf("units = %v, want %v", got, want)
	}
	u := mod.Units[0]
	if len(u.Files) != 1 || len(u.AllFiles) != 1 {
		t.Errorf("external test unit has %d files / %d all-files, want 1/1",
			len(u.Files), len(u.AllFiles))
	}
}

// TestLoadDirThreeUnits: a directory with library files, an in-package
// test, and an external test splits into three units with the expected
// file groupings — and the in-package unit compiles against the library
// files (AllFiles) while analyzing only the test files (Files).
func TestLoadDirThreeUnits(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                 "module threemod\n",
		"th/th.go":               "package th\n\n// Triple is the library side.\nfunc Triple(n int) int { return 3 * n }\n",
		"th/th_internal_test.go": "package th\n\nvar _ = Triple\n",
		"th/th_external_test.go": "package th_test\n\nfunc Indirect(n int) int { return n }\n",
	})
	mod, err := LoadDir(filepath.Join(root, "th"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want := []string{"threemod/th", "threemod/th [tests]", "threemod/th_test"}
	if got := pkgPaths(mod); !equalStrings(got, want) {
		t.Fatalf("units = %v, want %v", got, want)
	}
	lib, inPkg, ext := mod.Units[0], mod.Units[1], mod.Units[2]
	if len(lib.Files) != 1 || len(lib.AllFiles) != 1 {
		t.Errorf("lib unit files = %d/%d, want 1/1", len(lib.Files), len(lib.AllFiles))
	}
	if len(inPkg.Files) != 1 || len(inPkg.AllFiles) != 2 {
		t.Errorf("in-package test unit files = %d/%d, want 1/2",
			len(inPkg.Files), len(inPkg.AllFiles))
	}
	if len(ext.Files) != 1 || len(ext.AllFiles) != 1 {
		t.Errorf("external test unit files = %d/%d, want 1/1",
			len(ext.Files), len(ext.AllFiles))
	}
	if inPkg.Pkg == lib.Pkg {
		t.Error("in-package test unit shares the library's types.Package; test units must re-typecheck into their own object world")
	}
}

// TestLoadModuleExportTest: an external test package sees what an
// in-package test file declares (the export_test.go idiom), while the
// library unit, and a package the external test imports that itself
// imports the library, still see only the library.
func TestLoadModuleExportTest(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":            "module exmod\n",
		"ex/ex.go":          "package ex\n\nfunc half(n int) int { return n / 2 }\n\n// Two is exported.\nfunc Two() int { return half(4) }\n",
		"ex/export_test.go": "package ex\n\nvar Half = half\n",
		"ex/ex_test.go":     "package ex_test\n\nimport (\n\t\"exmod/ex\"\n\t\"exmod/user\"\n)\n\nvar _ = ex.Half(user.Four())\n",
		"user/user.go":      "package user\n\nimport \"exmod/ex\"\n\n// Four is exported.\nfunc Four() int { return 2 * ex.Two() }\n",
		"user/user_test.go": "package user\n\nvar _ = Four()\n",
	})
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	want := []string{"exmod/ex", "exmod/ex [tests]", "exmod/ex_test", "exmod/user", "exmod/user [tests]"}
	if got := pkgPaths(mod); !equalStrings(got, want) {
		t.Fatalf("units = %v, want %v", got, want)
	}
	lib, user := mod.Units[0].Pkg, mod.Units[3].Pkg
	if lib.Scope().Lookup("Half") != nil {
		t.Error("library unit sees the in-package test file's Half")
	}
	if imps := user.Imports(); len(imps) != 1 || imps[0] != lib {
		t.Errorf("user imports %v, want the library instance of ex", imps)
	}
}

// TestLoadDirRecursive: LoadDir loads the whole subtree, so
// multi-package fixture trees (a conf package plus a cmd/ main) land in
// one Module with cross-package imports resolved to shared objects.
func TestLoadDirRecursive(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":            "module treemod\n",
		"tree/conf/c.go":    "package conf\n\n// Knobs is shared state.\ntype Knobs struct{ N int }\n",
		"tree/cmd/app/m.go": "package main\n\nimport \"treemod/tree/conf\"\n\nfunc main() { _ = conf.Knobs{N: 1} }\n",
	})
	mod, err := LoadDir(filepath.Join(root, "tree"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want := []string{"treemod/tree/cmd/app", "treemod/tree/conf"}
	if got := pkgPaths(mod); !equalStrings(got, want) {
		t.Fatalf("units = %v, want %v", got, want)
	}
	if mod.Units[0].RelDir != "tree/cmd/app" || mod.Units[1].RelDir != "tree/conf" {
		t.Errorf("RelDirs = %q, %q; want module-root-relative paths",
			mod.Units[0].RelDir, mod.Units[1].RelDir)
	}
	// The importing unit and the conf unit must see one conf package, or
	// cross-package analyzers (optwire) would chase mismatched objects.
	confPkg := mod.Units[1].Pkg
	imported := mod.Units[0].Pkg.Imports()
	found := false
	for _, p := range imported {
		if p == confPkg {
			found = true
		}
	}
	if !found {
		t.Error("cmd/app does not import the memoized conf package instance")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
