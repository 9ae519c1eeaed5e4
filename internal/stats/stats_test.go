package stats

import (
	"math"
	"testing"
	"testing/quick"

	"busarb/internal/rng"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if got := r.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got := r.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 {
		t.Error("single-sample accumulator wrong")
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(2)
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: merging two accumulators equals accumulating the
// concatenated stream.
func TestRunningMergeProperty(t *testing.T) {
	f := func(seed uint64, n1, n2 uint8) bool {
		src := rng.New(seed)
		var a, b, all Running
		for i := 0; i < int(n1); i++ {
			v := src.NormFloat64() * 10
			a.Add(v)
			all.Add(v)
		}
		for i := 0; i < int(n2); i++ {
			v := src.NormFloat64()*3 + 5
			b.Add(v)
			all.Add(v)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-7 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTCritical90(t *testing.T) {
	if got := TCritical90(9); got != 1.833 {
		t.Errorf("t(9) = %v, want 1.833 (the paper's 10-batch value)", got)
	}
	if got := TCritical90(1); got != 6.314 {
		t.Errorf("t(1) = %v", got)
	}
	if got := TCritical90(100); got != 1.645 {
		t.Errorf("t(100) = %v, want normal approx", got)
	}
	if !math.IsNaN(TCritical90(0)) {
		t.Error("t(0) should be NaN")
	}
}

func TestBatchMeans(t *testing.T) {
	batches := []float64{10, 12, 11, 9, 13, 10, 11, 12, 9, 13}
	e := BatchMeans(batches)
	if e.NBatches != 10 {
		t.Fatalf("NBatches = %d", e.NBatches)
	}
	if math.Abs(e.Mean-11) > 1e-12 {
		t.Errorf("Mean = %v, want 11", e.Mean)
	}
	// StdDev of these batches is sqrt(20/9); se = sqrt(20/9)/sqrt(10).
	wantHW := 1.833 * math.Sqrt(20.0/9) / math.Sqrt(10)
	if math.Abs(e.HalfW-wantHW) > 1e-9 {
		t.Errorf("HalfW = %v, want %v", e.HalfW, wantHW)
	}
	if !e.Contains(11) || e.Contains(20) {
		t.Error("Contains misbehaves")
	}
}

func TestBatchMeansDegenerate(t *testing.T) {
	if e := BatchMeans(nil); !math.IsNaN(e.Mean) {
		t.Error("empty batch means should be NaN")
	}
	e := BatchMeans([]float64{5})
	if e.Mean != 5 || !math.IsNaN(e.HalfW) {
		t.Error("single batch should have NaN half-width")
	}
}

func TestRatioOfBatches(t *testing.T) {
	num := []float64{2, 4, 6}
	den := []float64{1, 2, 3}
	e := RatioOfBatches(num, den)
	if math.Abs(e.Mean-2) > 1e-12 || e.HalfW > 1e-9 {
		t.Errorf("ratio estimate = %+v, want exactly 2 ± 0", e)
	}
}

func TestRatioOfBatchesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	RatioOfBatches([]float64{1}, []float64{1, 2})
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Mean: 1.0449, HalfW: 0.051}
	if got := e.String(); got != "1.04 ± 0.05" {
		t.Errorf("String = %q", got)
	}
}

func TestECDF(t *testing.T) {
	var e ECDF
	for _, v := range []float64{3, 1, 2, 2, 5} {
		e.Add(v)
	}
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.6}, {3, 0.8}, {5, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.Mean(); math.Abs(got-2.6) > 1e-12 {
		t.Errorf("Mean = %v, want 2.6", got)
	}
	if got := e.MeanMin(2); math.Abs(got-(2+1+2+2+2)/5.0) > 1e-12 {
		t.Errorf("MeanMin(2) = %v", got)
	}
}

func TestECDFAddAfterQuery(t *testing.T) {
	var e ECDF
	e.Add(5)
	_ = e.P(5)
	e.Add(1) // must re-sort lazily
	if got := e.P(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(1) after late Add = %v, want 0.5", got)
	}
}

func TestLag1Autocorrelation(t *testing.T) {
	// A constant series: zero by convention (den = 0).
	if got := Lag1Autocorrelation([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("constant series = %v", got)
	}
	// A strongly alternating series has negative lag-1 correlation.
	if got := Lag1Autocorrelation([]float64{1, -1, 1, -1, 1, -1, 1, -1}); got > -0.5 {
		t.Errorf("alternating series = %v, want strongly negative", got)
	}
	// A trend has positive lag-1 correlation.
	if got := Lag1Autocorrelation([]float64{1, 2, 3, 4, 5, 6, 7, 8}); got < 0.3 {
		t.Errorf("trending series = %v, want positive", got)
	}
	// Too few batches: 0.
	if got := Lag1Autocorrelation([]float64{1, 2}); got != 0 {
		t.Errorf("short series = %v", got)
	}
	// IID noise: near zero.
	src := rng.New(8)
	series := make([]float64, 2000)
	for i := range series {
		series[i] = src.NormFloat64()
	}
	if got := Lag1Autocorrelation(series); math.Abs(got) > 0.06 {
		t.Errorf("iid series = %v, want ~0", got)
	}
}

func TestBatchMeansCoverage(t *testing.T) {
	// Statistical sanity: the 90% CI should contain the true mean in
	// roughly 90% of replications. With 200 replications, expect at
	// least 80% coverage (loose bound to keep the test deterministic).
	src := rng.New(99)
	contained := 0
	const reps = 200
	for rep := 0; rep < reps; rep++ {
		batches := make([]float64, 10)
		for b := range batches {
			var acc Running
			for i := 0; i < 200; i++ {
				acc.Add(src.ExpFloat64()) // true mean 1
			}
			batches[b] = acc.Mean()
		}
		if BatchMeans(batches).Contains(1.0) {
			contained++
		}
	}
	if contained < int(0.80*reps) {
		t.Errorf("CI coverage %d/%d, want >= 80%%", contained, reps)
	}
}
