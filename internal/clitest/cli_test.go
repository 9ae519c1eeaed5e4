// Package clitest runs the repository's command-line binaries the way a
// shell script would and pins their exit-status contract: every failure
// path exits 1 (flag-parse errors exit 2, the flag package's
// convention), and no misuse silently succeeds.
package clitest

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildCmds compiles the CLI binaries once into a temp dir and returns
// their paths by name.
func buildCmds(t *testing.T) map[string]string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	_, self, _, _ := runtime.Caller(0)
	root := filepath.Dir(filepath.Dir(filepath.Dir(self)))
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building CLIs: %v\n%s", err, out)
	}
	bins := map[string]string{}
	for _, name := range []string{"paper", "arbsim", "arbtrace", "arbverify", "benchjson", "arbd", "arbload", "arblint"} {
		bins[name] = filepath.Join(dir, name)
	}
	return bins
}

// run executes a binary and returns its exit code and combined stderr.
func run(t *testing.T, bin string, stdin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v", bin, err)
	}
	return code, stderr.String()
}

func TestCLIFailurePathsExitNonZero(t *testing.T) {
	bins := buildCmds(t)

	cases := []struct {
		name     string
		bin      string
		args     []string
		stdin    string
		wantCode int
		wantErr  string // substring that must appear on stderr
	}{
		{"paper unknown format", "paper", []string{"-table", "4.1", "-format", "yaml"}, "", 1, "unknown format"},
		{"paper format on a text-only study", "paper", []string{"-cost", "-format", "csv"}, "", 1, "-ablations, -cost, -robustness, -priority and -membus print text only"},
		{"paper unknown table", "paper", []string{"-table", "9.9"}, "", 1, "unknown table"},
		{"paper unknown figure", "paper", []string{"-figure", "7.7"}, "", 1, "unknown figure"},
		{"paper bad sizes", "paper", []string{"-table", "4.1", "-sizes", "x"}, "", 1, "bad size"},
		{"paper no work requested", "paper", []string{}, "", 1, ""},
		{"arbsim unknown protocol", "arbsim", []string{"-protocol", "BOGUS"}, "", 1, "unknown protocol"},
		{"arbsim unknown compare entry", "arbsim", []string{"-compare", "RR1,BOGUS"}, "", 1, "unknown protocol"},
		{"arbsim blank compare list", "arbsim", []string{"-compare", " , "}, "", 1, "non-empty protocol list"},
		{"arbsim missing scenario file", "arbsim", []string{"-scenario", "/nonexistent/file.json"}, "", 1, "no such file"},
		{"arbsim bad trace path", "arbsim", []string{"-n", "4", "-batches", "2", "-batchsize", "100", "-trace", "/nonexistent/dir/t.jsonl"}, "", 1, "no such file"},
		{"arbsim non-positive metrics window", "arbsim", []string{"-n", "4", "-batches", "2", "-batchsize", "100", "-metrics-window", "0"}, "", 1, "must be positive"},
		{"arbtrace bad identity", "arbtrace", []string{"-ids", "0"}, "", 1, "bad identity"},
		{"arbtrace bad topo spec", "arbtrace", []string{"-topo", "4x2"}, "", 1, "bad -topo spec"},
		{"arbtrace topo unknown protocol", "arbtrace", []string{"-topo", "4x2:RR1/BOGUS"}, "", 1, "unknown protocol"},
		{"arbtrace unknown protocol", "arbtrace", []string{"-protocol", "Hybrid"}, "", 1, "no line-level model"},
		{"arbverify cross unknown protocol", "arbverify", []string{"-cross", "-protocol", "Hybrid"}, "", 1, "no line-level model"},
		{"arbtrace too few agents", "arbtrace", []string{"-n", "1"}, "", 1, "at least 2 agents"},
		{"arbverify unknown protocol", "arbverify", []string{"-protocol", "BOGUS"}, "", 1, "unknown protocol"},
		{"arbverify too few agents", "arbverify", []string{"-n", "1"}, "", 1, "at least 2 agents"},
		{"arbverify refuted bound", "arbverify", []string{"-protocol", "FP", "-n", "3", "-bound", "2"}, "", 1, ""},
		{"arbverify negative bound", "arbverify", []string{"-bound", "-1"}, "", 1, "must not be negative"},
		{"benchjson empty stdin", "benchjson", nil, " ", 1, "no benchmark lines"},
		{"benchjson malformed input", "benchjson", nil, "BenchmarkX abc 5 ns/op\n", 1, "bad iteration count"},
		{"benchjson compare wants two args", "benchjson", []string{"-compare", "only.json"}, "", 1, "exactly two arguments"},
		{"benchjson compare missing file", "benchjson", []string{"-compare", "/nonexistent/a.json", "/nonexistent/b.json"}, "", 1, "no such file"},
		{"benchjson compare catches alloc regression", "benchjson", []string{"-compare", "-ns-threshold=-1", "testdata/bench-old.json", "testdata/bench-regressed.json"}, "", 1, "allocs/op"},
		{"arbd malformed resource spec", "arbd", []string{"-resources", "busRR1"}, "", 1, "bad resource spec"},
		{"arbd bad agent count", "arbd", []string{"-resources", "bus:ten:RR1"}, "", 1, "bad agent count"},
		{"arbd empty resource list", "arbd", []string{"-resources", " , "}, "", 1, "names no resources"},
		{"arbd unknown protocol", "arbd", []string{"-resources", "bus:4:BOGUS"}, "", 1, "unknown protocol"},
		{"arbd malformed tree dims", "arbd", []string{"-resources", "bus:8x:RR1/FCFS2"}, "", 1, "bad tree spec"},
		{"arbd tree level mismatch", "arbd", []string{"-resources", "bus:8x4:RR1"}, "", 1, "bad tree spec"},
		{"arbd tree unknown protocol", "arbd", []string{"-resources", "bus:8x4:RR1/BOGUS"}, "", 1, "unknown protocol"},
		{"arbd unlistenable address", "arbd", []string{"-addr", "256.0.0.1:0", "-resources", "bus:2:RR1"}, "", 1, ""},
		{"arbd unlistenable binary address", "arbd", []string{"-addr", "127.0.0.1:0", "-baddr", "256.0.0.1:0", "-resources", "bus:2:RR1"}, "", 1, ""},
		{"arbd bad cluster member spec", "arbd", []string{"-cluster", "a;tcp://127.0.0.1:1"}, "", 1, "want name=addr"},
		{"arbd empty cluster list", "arbd", []string{"-cluster", " , "}, "", 1, "names no members"},
		{"arbd self not in cluster", "arbd", []string{"-cluster", "a=tcp://127.0.0.1:1", "-self", "b"}, "", 1, "not in Members"},
		{"arbload empty resources list", "arbload", []string{"-resources", " , ", "-agents", "1", "-requests", "1"}, "", 1, "names no resources"},
		{"arbload unreachable daemon", "arbload", []string{"-target", "http://127.0.0.1:1", "-resource", "bus", "-agents", "1", "-requests", "1"}, "", 1, "acquire"},
		{"arbload unreachable binary daemon", "arbload", []string{"-target", "tcp://127.0.0.1:1", "-resource", "bus", "-agents", "1", "-requests", "1"}, "", 1, "dial"},
		{"arbload schemeless target", "arbload", []string{"-target", "127.0.0.1:8321", "-agents", "1", "-requests", "1"}, "", 1, "scheme"},
		{"arbload bad agent count", "arbload", []string{"-agents", "0"}, "", 1, "at least 1 agent"},
		{"flag parse errors keep the flag convention", "arbsim", []string{"-nosuchflag"}, "", 2, "flag provided but not defined"},
		{"arbd flag convention", "arbd", []string{"-nosuchflag"}, "", 2, "flag provided but not defined"},
		{"arbload flag convention", "arbload", []string{"-nosuchflag"}, "", 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := run(t, bins[tc.bin], tc.stdin, tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, stderr)
			}
			if tc.wantErr != "" && !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.wantErr)
			}
		})
	}
}

// TestUnknownProtocolListingIsSorted pins the "known protocols:" line
// an unknown -protocol prints: sorted, and byte-identical from run to
// run (a registry listed in map order changes on every run).
func TestUnknownProtocolListingIsSorted(t *testing.T) {
	bins := buildCmds(t)
	var first string
	for i := 0; i < 3; i++ {
		code, stderr := run(t, bins["arbsim"], "", "-protocol", "BOGUS")
		if code != 1 {
			t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr)
		}
		var line string
		for _, l := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(l, "known protocols: ") {
				line = l
			}
		}
		list := strings.Trim(strings.TrimPrefix(line, "known protocols: "), "[]")
		if names := strings.Fields(list); len(names) < 2 || !sort.StringsAreSorted(names) {
			t.Fatalf("listing %q is not a sorted protocol list (stderr: %s)", line, stderr)
		}
		if i == 0 {
			first = line
		} else if line != first {
			t.Errorf("run %d listed %q, run 1 listed %q", i+1, line, first)
		}
	}
}

// runStdout executes a binary and returns its exit code and stdout.
func runStdout(t *testing.T, bin string, stdin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v (stderr: %s)", bin, err, stderr.String())
	}
	return code, stdout.String()
}

// TestBenchJSONStampReproducible pins the -stamp contract: with
// -stamp=false (and no -date) the snapshot carries no wall-clock
// residue, so regenerating a BENCH_*.json from the same bench output is
// byte-identical — the determinism analyzer's escape hatch for
// benchjson covers only the default stamping path.
func TestBenchJSONStampReproducible(t *testing.T) {
	bins := buildCmds(t)
	bench := "BenchmarkX \t 10 \t 100 ns/op \t 8 B/op \t 1 allocs/op\n"

	code, first := runStdout(t, bins["benchjson"], bench, "-stamp=false")
	if code != 0 {
		t.Fatalf("benchjson -stamp=false exited %d", code)
	}
	code, second := runStdout(t, bins["benchjson"], bench, "-stamp=false")
	if code != 0 {
		t.Fatalf("benchjson -stamp=false exited %d", code)
	}
	if first != second {
		t.Errorf("-stamp=false output is not byte-identical:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(first, `"date": ""`) && !strings.Contains(first, `"date":""`) {
		t.Errorf("-stamp=false should leave the date empty, got:\n%s", first)
	}

	// Default behavior still stamps today's date (the archive's name
	// contract), and -date overrides it deterministically.
	code, stamped := runStdout(t, bins["benchjson"], bench)
	if code != 0 {
		t.Fatalf("benchjson exited %d", code)
	}
	if strings.Contains(stamped, `"date": ""`) || strings.Contains(stamped, `"date":""`) {
		t.Errorf("default run should stamp a date, got:\n%s", stamped)
	}
	code, dated := runStdout(t, bins["benchjson"], bench, "-date", "2026-01-02")
	if code != 0 {
		t.Fatalf("benchjson -date exited %d", code)
	}
	if !strings.Contains(dated, "2026-01-02") {
		t.Errorf("-date override missing from output:\n%s", dated)
	}
}

// TestBenchJSONCommit pins that -commit lands in the snapshot header
// and that a snapshot taken without it has no commit field.
func TestBenchJSONCommit(t *testing.T) {
	bins := buildCmds(t)
	bench := "BenchmarkX \t 10 \t 100 ns/op \t 8 B/op \t 1 allocs/op\n"
	code, out := runStdout(t, bins["benchjson"], bench, "-stamp=false", "-commit", "2a06940")
	if code != 0 {
		t.Fatalf("benchjson -commit exited %d", code)
	}
	if !strings.Contains(out, `"commit": "2a06940"`) {
		t.Errorf("-commit missing from the header:\n%s", out)
	}
	code, out = runStdout(t, bins["benchjson"], bench, "-stamp=false")
	if code != 0 {
		t.Fatalf("benchjson exited %d", code)
	}
	if strings.Contains(out, `"commit"`) {
		t.Errorf("a snapshot without -commit has a commit field:\n%s", out)
	}
}

// TestArbdLifecycle pins the daemon's process contract end to end: it
// announces both listen addresses on stdout, serves a real arbload run
// over each transport, and a SIGTERM is a clean exit 0.
func TestArbdLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real daemon")
	}
	bins := buildCmds(t)

	daemon := exec.Command(bins["arbd"],
		"-addr", "127.0.0.1:0", "-baddr", "127.0.0.1:0",
		"-resources", "bus:4:RR1,disk:2:FCFS2", "-tick", "200us")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill() // no-op after a clean Wait

	// The leading stdout lines carry the bound addresses.
	lines := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	baddrCh := make(chan string, 1)
	go func() {
		for lines.Scan() {
			line := lines.Text()
			if rest, ok := strings.CutPrefix(line, "arbd: binary listening on "); ok {
				baddrCh <- rest
			} else if rest, ok := strings.CutPrefix(line, "arbd: listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	var addr, baddr string
	for addr == "" || baddr == "" {
		select {
		case addr = <-addrCh:
		case baddr = <-baddrCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never announced its addresses (stderr: %s)", stderr.String())
		}
	}

	for _, target := range []string{"http://" + addr, "tcp://" + baddr} {
		code, out := runStdout(t, bins["arbload"],
			"", "-target", target, "-resource", "bus", "-agents", "3", "-requests", "5")
		if code != 0 {
			t.Fatalf("arbload exited %d against a live daemon at %s", code, target)
		}
		if !strings.Contains(out, "bandwidth ratio t_N/t_1") {
			t.Errorf("arbload report for %s missing the bandwidth ratio line:\n%s", target, out)
		}
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- daemon.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Errorf("SIGTERM exit: %v (want clean exit 0; stderr: %s)", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}

// freePort reserves an ephemeral port and returns it, released for
// the caller to rebind. The tiny race with other processes is the
// standard cost of needing a port number before the process that will
// listen on it exists (cluster members must know each other's
// addresses up front).
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// TestArbdClusterLifecycle pins the -cluster serving path end to end:
// two arbd processes form a cluster, a multi-target multi-resource
// arbload run completes against it (agents spread round-robin over
// the resources, calls routed to each resource's owner or forwarded),
// and SIGTERM is a clean exit 0 on both members.
func TestArbdClusterLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	bins := buildCmds(t)

	p1, p2 := freePort(t), freePort(t)
	spec := fmt.Sprintf("a=tcp://127.0.0.1:%d,b=tcp://127.0.0.1:%d", p1, p2)
	var daemons []*exec.Cmd
	for _, name := range []string{"a", "b"} {
		daemon := exec.Command(bins["arbd"],
			"-addr", "127.0.0.1:0", "-cluster", spec, "-self", name,
			"-resources", "bus:4:RR1,disk:4:RR1,dma:4:RR1", "-tick", "200us")
		stdout, err := daemon.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr strings.Builder
		daemon.Stderr = &stderr
		if err := daemon.Start(); err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, daemon)
		defer daemon.Process.Kill() // no-op after a clean Wait

		ready := make(chan bool, 1)
		go func() {
			lines := bufio.NewScanner(stdout)
			for lines.Scan() {
				if strings.HasPrefix(lines.Text(), "arbd: binary listening on ") {
					ready <- true
					return
				}
			}
			ready <- false
		}()
		select {
		case ok := <-ready:
			if !ok {
				t.Fatalf("member %s never announced its binary listener (stderr: %s)", name, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("member %s startup timed out (stderr: %s)", name, stderr.String())
		}
	}

	targets := fmt.Sprintf("tcp://127.0.0.1:%d,tcp://127.0.0.1:%d", p1, p2)
	code, out := runStdout(t, bins["arbload"], "",
		"-target", targets, "-resources", "bus,disk,dma", "-agents", "6", "-requests", "5")
	if code != 0 {
		t.Fatalf("arbload exited %d against the cluster", code)
	}
	if !strings.Contains(out, "bandwidth ratio t_N/t_1") {
		t.Errorf("arbload cluster report missing the bandwidth ratio line:\n%s", out)
	}
	if !strings.Contains(out, "via cluster of 2") {
		t.Errorf("arbload cluster report missing the cluster header:\n%s", out)
	}

	for i, daemon := range daemons {
		if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		waitErr := make(chan error, 1)
		go func() { waitErr <- daemon.Wait() }()
		select {
		case err := <-waitErr:
			if err != nil {
				t.Errorf("member %d SIGTERM exit: %v (want clean exit 0)", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("member %d did not exit within 10s of SIGTERM", i)
		}
	}
}

// TestArbsimTopologyScenario pins the hierarchical scenario path end
// to end: arbsim loads a topology scenario file, runs it, and reports
// the composite protocol name.
func TestArbsimTopologyScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	bins := buildCmds(t)
	path := filepath.Join(t.TempDir(), "hier.json")
	doc := `{
	  "name": "hier-cli",
	  "protocol": "FCFS2",
	  "batches": 2, "batch_size": 100,
	  "topology": {
	    "local_protocol": "RR1",
	    "clusters": [
	      {"agents": [{"count": 4, "load": 0.2}]},
	      {"agents": [{"count": 4, "load": 0.2}]}
	    ]
	  }
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runStdout(t, bins["arbsim"], "", "-scenario", path)
	if code != 0 {
		t.Fatalf("arbsim -scenario exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "FCFS2(2xRR1:4)") {
		t.Errorf("report missing the composite protocol name:\n%s", out)
	}

	// A malformed topology (one cluster) is a clean exit 1 naming the
	// problem.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"protocol":"FCFS2","topology":{"local_protocol":"RR1",
	  "clusters":[{"agents":[{"count":4,"load":0.2}]}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := run(t, bins["arbsim"], "", "-scenario", bad)
	if code != 1 || !strings.Contains(stderr, "at least 2 clusters") {
		t.Errorf("bad topology: exit %d stderr %q, want 1 naming the cluster count", code, stderr)
	}
}

func TestCLISuccessPathsExitZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	bins := buildCmds(t)

	cases := []struct {
		name  string
		bin   string
		args  []string
		stdin string
	}{
		{"arbsim quick run", "arbsim", []string{"-n", "4", "-batches", "2", "-batchsize", "100"}, ""},
		{"arbsim compare parallel", "arbsim", []string{"-compare", "RR1,FCFS1", "-n", "4", "-batches", "2", "-batchsize", "100", "-parallel", "2"}, ""},
		{"arbtrace defaults", "arbtrace", []string{"-ticks", "10"}, ""},
		{"arbtrace RR2 line-level", "arbtrace", []string{"-protocol", "RR2", "-ticks", "10"}, ""},
		{"arbtrace topology hops", "arbtrace", []string{"-topo", "4x2:RR1/FCFS2", "-ticks", "20"}, ""},
		{"arbverify RR1 small", "arbverify", []string{"-protocol", "RR1", "-n", "3"}, ""},
		{"arbverify Ticket small", "arbverify", []string{"-protocol", "Ticket", "-n", "3"}, ""},
		{"arbverify Hybrid small", "arbverify", []string{"-protocol", "Hybrid", "-n", "3"}, ""},
		{"arbverify cross RR2", "arbverify", []string{"-cross", "-protocol", "RR2", "-n", "4", "-trials", "3", "-ticks", "100"}, ""},
		{"paper tiny table", "paper", []string{"-table", "4.5", "-sizes", "5", "-batches", "2", "-batchsize", "100"}, ""},
		{"benchjson parses bench output", "benchjson", []string{"-date", "2026-08-06"},
			"BenchmarkX 	 10 	 100 ns/op 	 8 B/op 	 1 allocs/op\n"},
		{"benchjson self-compare is clean", "benchjson", []string{"-compare", "-ns-threshold=-1",
			"testdata/bench-old.json", "testdata/bench-old.json"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := run(t, bins[tc.bin], tc.stdin, tc.args...)
			if code != 0 {
				t.Errorf("exit code %d, want 0 (stderr: %s)", code, stderr)
			}
		})
	}
}
