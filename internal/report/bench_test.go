package report

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: busarb
cpu: Test CPU @ 2.00GHz
BenchmarkTable41_10Agents 	       1	  82756260 ns/op	         1.074 peak-FCFS-ratio	  116296 B/op	    1663 allocs/op
BenchmarkSimulatorThroughput-8 	      37	  31360922 ns/op	    127953 completions/s	   12345 B/op	      67 allocs/op
PASS
ok  	busarb	4.944s
pkg: busarb/internal/other
BenchmarkOther 	     100	     12345 ns/op
PASS
ok  	busarb/internal/other	0.100s
`

func TestParseBench(t *testing.T) {
	s, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if s.Goos != "linux" || s.Goarch != "amd64" || s.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("bad header: %+v", s)
	}
	if s.GOMAXPROCS != 1 {
		t.Errorf("GOMAXPROCS = %d, want 1 (the first benchmark has no -N suffix)", s.GOMAXPROCS)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(s.Benchmarks))
	}

	b := s.Benchmarks[0]
	if b.Name != "BenchmarkTable41_10Agents" || b.Pkg != "busarb" ||
		b.Iterations != 1 || b.NsPerOp != 82756260 ||
		b.BytesPerOp != 116296 || b.AllocsPerOp != 1663 {
		t.Errorf("bad first benchmark: %+v", b)
	}
	if got := b.Metrics["peak-FCFS-ratio"]; got != 1.074 {
		t.Errorf("peak-FCFS-ratio = %v, want 1.074", got)
	}

	if b := s.Benchmarks[1]; b.Name != "BenchmarkSimulatorThroughput" || b.Procs != 8 {
		t.Errorf("procs suffix not split: %+v", b)
	}
	if b := s.Benchmarks[2]; b.Pkg != "busarb/internal/other" || b.NsPerOp != 12345 {
		t.Errorf("pkg header not tracked: %+v", b)
	}
}

func TestParseBenchGOMAXPROCS(t *testing.T) {
	s, err := ParseBench(strings.NewReader("BenchmarkA-2 \t 10 \t 100 ns/op\nBenchmarkB-2 \t 10 \t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.GOMAXPROCS != 2 {
		t.Errorf("GOMAXPROCS = %d, want 2 from the -2 suffix", s.GOMAXPROCS)
	}
}

func TestParseBenchSplitReportLine(t *testing.T) {
	// A benchmark that writes to stdout makes go test emit the name on
	// its own line; the parser must skip it rather than fail.
	in := "BenchmarkChatty\nsome output\nBenchmarkChatty 	      10	   100 ns/op\n"
	s, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Iterations != 10 {
		t.Fatalf("got %+v", s.Benchmarks)
	}
}

func TestParseBenchMalformed(t *testing.T) {
	if _, err := ParseBench(strings.NewReader("BenchmarkBad 	 notanumber 	 5 ns/op\n")); err == nil {
		t.Error("malformed iteration count not rejected")
	}
}

func TestWriteBenchJSONRoundTrip(t *testing.T) {
	s, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	s.Date = "2026-08-06"
	var buf strings.Builder
	if err := WriteBenchJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	var back BenchSuite
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Date != "2026-08-06" || len(back.Benchmarks) != len(s.Benchmarks) {
		t.Errorf("round trip lost data: %+v", back)
	}
}

// TestParseBenchFoldsRepeats pins the -count fold: three repeats of one
// benchmark become one record with the median ns/op, the largest
// allocs/op and the repeat count, so -compare judges medians rather
// than each old repeat against the last new one.
func TestParseBenchFoldsRepeats(t *testing.T) {
	in := `pkg: busarb/internal/sim
BenchmarkScheduler 	 1000 	 30 ns/op 	 0 B/op 	 0 allocs/op
BenchmarkOther 	 10 	 5 ns/op 	 2 ratio
BenchmarkScheduler 	 1000 	 90 ns/op 	 16 B/op 	 1 allocs/op
BenchmarkScheduler 	 2000 	 31 ns/op 	 0 B/op 	 0 allocs/op
BenchmarkOther 	 10 	 7 ns/op 	 4 ratio
BenchmarkScheduler-2 	 1000 	 50 ns/op
`
	s, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("got %d records, want 3 (Scheduler, Other, Scheduler-2): %+v", len(s.Benchmarks), s.Benchmarks)
	}
	b := s.Benchmarks[0]
	if b.Name != "BenchmarkScheduler" || b.Procs != 0 || b.Runs != 3 || b.NsPerOp != 31 ||
		b.AllocsPerOp != 1 || b.BytesPerOp != 16 || b.Iterations != 4000 {
		t.Errorf("folded Scheduler = %+v, want 3 runs, 31 ns/op, 1 allocs/op, 16 B/op, 4000 iterations", b)
	}
	if b := s.Benchmarks[1]; b.Runs != 2 || b.NsPerOp != 6 || b.Metrics["ratio"] != 3 {
		t.Errorf("folded Other = %+v, want 2 runs, 6 ns/op, ratio 3", b)
	}
	if b := s.Benchmarks[2]; b.Procs != 2 || b.Runs != 1 || b.NsPerOp != 50 {
		t.Errorf("Scheduler-2 = %+v, want its own single record", b)
	}

	old, err := ParseBench(strings.NewReader("BenchmarkScheduler 1 30 ns/op\nBenchmarkScheduler 1 32 ns/op\nBenchmarkScheduler 1 29 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := ParseBench(strings.NewReader("BenchmarkScheduler 1 30 ns/op\nBenchmarkScheduler 1 31 ns/op\nBenchmarkScheduler 1 90 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if regs, _ := CompareBench(old, next, 0.25); len(regs) != 0 {
		t.Errorf("a trailing outlier failed the median gate: %v", regs)
	}
}
