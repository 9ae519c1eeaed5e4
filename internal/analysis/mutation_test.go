package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"busarb/internal/analysis"
)

// TestMutationsTurnTheTreeRed proves the suite actually guards the
// invariants it claims to: re-introducing each class of bug into a
// copy of the shipping tree must produce a finding. This is the
// regression test for the analyzers themselves — if a rewrite of the
// cfg engine or a scope table ever made one of these mutations pass
// silently, TestTreeIsClean would keep passing while the protection
// was gone.
func TestMutationsTurnTheTreeRed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks four mutated copies of the module")
	}
	prog, err := analysis.ModuleProgram()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	root := prog.RootDir

	cases := []struct {
		name     string
		analyzer *analysis.Analyzer
		file     string // module-relative file to mutate
		pkg      string // module-relative package dir to analyze
		old, new string // textual mutation (old must occur exactly once)
		want     string // substring of the expected diagnostic
	}{
		{
			name:     "deleting a bussim nil-guard",
			analyzer: analysis.NilProbe,
			file:     "internal/bussim/bussim.go",
			pkg:      "internal/bussim",
			old: `		if s.cfg.Observer != nil {
			// Probes may retain events, so the snapshot is listed into a
			// fresh slice (observed runs are not the allocation-free path).
			snap := s.bus.Snapshot()
			s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.ArbitrationStart,
				Agents: snap.AppendIDs(make([]int, 0, snap.Count()))})
		}`,
			new: `		snap := s.bus.Snapshot()
		s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.ArbitrationStart,
			Agents: snap.AppendIDs(make([]int, 0, snap.Count()))})`,
			want: "outside a nil-Observer guard",
		},
		{
			name:     "deleting the serveConn WaitGroup.Done",
			analyzer: analysis.GoroLeak,
			file:     "internal/arbd/binary.go",
			pkg:      "internal/arbd",
			old:      "\tdefer s.wg.Done()\n",
			new:      "",
			want:     "not tied to a shutdown path",
		},
		{
			name:     "adding a stray append in bitarb Vec.Set",
			analyzer: analysis.AllocFree,
			file:     "internal/bitarb/bitarb.go",
			pkg:      "internal/bitarb",
			old:      "func (v *Vec) Set(i int) {\n\tv.check(i)\n",
			new:      "func (v *Vec) Set(i int) {\n\tv.check(i)\n\tv.w = append(v.w, 0)\n",
			want:     "not provably reuse-backed",
		},
		{
			name:     "adding a scratch make in core AAP1.Arbitrate",
			analyzer: analysis.AllocFree,
			file:     "internal/core/aap.go",
			pkg:      "internal/core",
			old:      "\tw := waiting.MaxAnd(&p.batch)\n",
			new:      "\tscratch := make([]int, p.n)\n\t_ = scratch\n\tw := waiting.MaxAnd(&p.batch)\n",
			want:     "make allocates on the hot path",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			copyModule(t, root, tmp)

			target := filepath.Join(tmp, filepath.FromSlash(tc.file))
			src, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), tc.old); n != 1 {
				t.Fatalf("mutation anchor occurs %d times in %s, want exactly 1; the shipping code moved — update the mutation", n, tc.file)
			}
			mutated := strings.Replace(string(src), tc.old, tc.new, 1)
			if err := os.WriteFile(target, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}

			mprog, err := analysis.LoadModule(tmp)
			if err != nil {
				t.Fatalf("loading mutated module: %v", err)
			}
			pkg, err := mprog.LoadDir(filepath.Join(tmp, filepath.FromSlash(tc.pkg)))
			if err != nil {
				t.Fatalf("loading mutated %s: %v", tc.pkg, err)
			}
			diags, err := analysis.RunAnalyzer(tc.analyzer, pkg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				if strings.Contains(d.Message, tc.want) {
					return // the mutation was caught
				}
			}
			t.Errorf("%s did not catch the mutation: want a diagnostic containing %q, got %d diagnostic(s): %v",
				tc.analyzer.Name, tc.want, len(diags), diags)
		})
	}
}

// copyModule copies the module's non-test Go files and go.mod into
// dst, preserving layout and skipping testdata and hidden directories
// the loader skips anyway.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}
