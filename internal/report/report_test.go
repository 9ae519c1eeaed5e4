package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"busarb/internal/bussim"
	"busarb/internal/core"
	"busarb/internal/experiment"
	"busarb/internal/stats"
)

func smallResult(t *testing.T) *bussim.Result {
	t.Helper()
	f, _ := core.ByName("RR1")
	return bussim.Run(bussim.Config{
		N: 4, Protocol: f, Seed: 3,
		Inter:   bussim.UniformLoad(4, 1.0, 1.0, 1.0),
		Batches: 3, BatchSize: 200,
	})
}

func TestWriteResultJSONRoundTrip(t *testing.T) {
	res := smallResult(t)
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded ResultJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Protocol != "RR1" || decoded.N != 4 || len(decoded.Agents) != 4 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Completions != res.Completions {
		t.Errorf("completions %d != %d", decoded.Completions, res.Completions)
	}
	if decoded.Agents[0].ID != 1 || decoded.Agents[3].ID != 4 {
		t.Errorf("agent ids wrong: %+v", decoded.Agents)
	}
}

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return recs
}

func fakeEstimate(m, h float64) stats.Estimate { return stats.Estimate{Mean: m, HalfW: h} }

func TestTable41CSV(t *testing.T) {
	rows := []experiment.Table41Row{
		{Load: 0.25, Lambda: 0.25, RatioRR: fakeEstimate(1.0, 0.02), RatioFCFS: fakeEstimate(1.01, 0.03)},
		{Load: 2.0, Lambda: 1.0, RatioRR: fakeEstimate(1.0, 0.01), RatioFCFS: fakeEstimate(1.09, 0.01)},
	}
	var buf bytes.Buffer
	if err := Table41CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, buf.String())
	if len(recs) != 3 || len(recs[0]) != 6 {
		t.Fatalf("shape = %dx%d", len(recs), len(recs[0]))
	}
	if recs[0][0] != "load" || recs[2][4] != "1.09" {
		t.Errorf("records = %v", recs)
	}
}

func TestTable41CSVWithAAP(t *testing.T) {
	aap := fakeEstimate(1.99, 0.02)
	rows := []experiment.Table41Row{
		{Load: 7.5, Lambda: 1.0, RatioRR: fakeEstimate(1, 0), RatioFCFS: fakeEstimate(1.01, 0), RatioAAP: &aap},
	}
	var buf bytes.Buffer
	if err := Table41CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, buf.String())
	if len(recs[0]) != 8 || recs[0][6] != "ratio_aap" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][6] != "1.99" {
		t.Errorf("aap cell = %v", recs[1][6])
	}
}

func TestTable42And45CSV(t *testing.T) {
	var buf bytes.Buffer
	err := Table42CSV(&buf, []experiment.Table42Row{{
		Load: 1, W: 2.77, SDFCFS: fakeEstimate(1.18, 0.02),
		SDRR: fakeEstimate(1.30, 0.02), SDRatio: fakeEstimate(1.10, 0.02),
	}})
	if err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, buf.String())
	if recs[1][1] != "2.77" {
		t.Errorf("W cell = %v", recs[1][1])
	}

	buf.Reset()
	err = Table45CSV(&buf, []experiment.Table45Row{{CV: 0, LoadRatio: 0.7, Ratio: fakeEstimate(0.5, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	recs = parseCSV(t, buf.String())
	if recs[1][2] != "0.5" {
		t.Errorf("ratio cell = %v", recs[1][2])
	}
}

func TestFigure41CSV(t *testing.T) {
	f := experiment.Figure41Result{
		N: 30, Load: 1.5, W: 11,
		Points: []experiment.FigurePoint{{X: 1, RR: 0.1, FCFS: 0.05}, {X: 2, RR: 0.3, FCFS: 0.25}},
	}
	var buf bytes.Buffer
	if err := Figure41CSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, buf.String())
	if len(recs) != 3 || recs[2][2] != "0.25" {
		t.Errorf("records = %v", recs)
	}
}

func TestTable43And44CSV(t *testing.T) {
	var buf bytes.Buffer
	err := Table43CSV(&buf, []experiment.Table43Row{{
		Load: 2, W: 6, WNetRR: 0.5, WNetFCFS: 0.2, ProdRR: 0.95, ProdFCFS: 0.98, Overlap: 7,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, buf.String()); recs[1][6] != "7" {
		t.Errorf("overlap cell = %v", recs[1][6])
	}

	buf.Reset()
	err = Table44CSV(&buf, []experiment.Table44Row{{
		Load: 1.03, Lambda: 0.92, LoadRatio: 2,
		RatioRR: fakeEstimate(1.78, 0.06), RatioFCFS: fakeEstimate(1.78, 0.06),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, buf.String()); recs[1][2] != "2" {
		t.Errorf("load_ratio cell = %v", recs[1][2])
	}
}

func TestTableJSON(t *testing.T) {
	rows := []experiment.Table45Row{{CV: 0.5, LoadRatio: 0.7, Ratio: fakeEstimate(0.76, 0.01)}}
	var buf bytes.Buffer
	if err := TableJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != 1 || decoded[0]["CV"].(float64) != 0.5 {
		t.Errorf("decoded = %v", decoded)
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

func TestCSVWriteErrorPropagates(t *testing.T) {
	err := Table45CSV(errWriter{}, []experiment.Table45Row{{CV: 0}})
	if err == nil {
		t.Error("write error not propagated")
	}
}

func TestFigure41SVG(t *testing.T) {
	f := experiment.Figure41Result{
		N: 30, Load: 1.5, W: 11,
		Points: []experiment.FigurePoint{
			{X: 5, RR: 0.1, FCFS: 0.05},
			{X: 11, RR: 0.5, FCFS: 0.55},
			{X: 20, RR: 0.95, FCFS: 1.0},
		},
	}
	var buf bytes.Buffer
	if err := Figure41SVG(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "FCFS", "Figure 4.1", "W = 11.0", "stroke=\"#1f77b4\""} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if err := Figure41SVG(&buf, experiment.Figure41Result{}); err == nil {
		t.Error("empty figure accepted")
	}
}

func TestLinePlotSVG(t *testing.T) {
	var buf bytes.Buffer
	err := LinePlotSVG(&buf, "Waiting time vs load", "offered load", "W", []Series{
		{Label: "10 agents", X: []float64{0.25, 1, 2}, Y: []float64{1.64, 2.77, 6.0}},
		{Label: "30 agents", X: []float64{0.25, 1, 2}, Y: []float64{1.66, 4.11, 16.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "30 agents", "offered load", "stroke=\"#d62728\""} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q", want)
		}
	}
	// Error paths.
	if err := LinePlotSVG(&buf, "t", "x", "y", nil); err == nil {
		t.Error("empty series accepted")
	}
	if err := LinePlotSVG(&buf, "t", "x", "y", []Series{{Label: "bad", X: []float64{1}, Y: nil}}); err == nil {
		t.Error("malformed series accepted")
	}
	if err := LinePlotSVG(&buf, "t", "x", "y", []Series{{Label: "zero", X: []float64{0}, Y: []float64{0}}}); err == nil {
		t.Error("degenerate range accepted")
	}
}
