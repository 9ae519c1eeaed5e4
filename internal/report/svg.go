package report

import (
	"fmt"
	"io"
	"strings"

	"busarb/internal/experiment"
)

// Figure41SVG renders the waiting-time CDFs as a standalone SVG plot —
// a publication-shaped regeneration of the paper's Figure 4.1 with no
// external plotting dependency.
func Figure41SVG(w io.Writer, f experiment.Figure41Result) error {
	const (
		width   = 640
		height  = 420
		mLeft   = 60
		mRight  = 20
		mTop    = 40
		mBottom = 50
	)
	plotW := float64(width - mLeft - mRight)
	plotH := float64(height - mTop - mBottom)
	if len(f.Points) == 0 {
		return fmt.Errorf("report: figure has no points")
	}
	maxX := f.Points[len(f.Points)-1].X

	x := func(v float64) float64 { return mLeft + v/maxX*plotW }
	y := func(p float64) float64 { return mTop + (1-p)*plotH }

	path := func(get func(experiment.FigurePoint) float64) string {
		var b strings.Builder
		for i, p := range f.Points {
			cmd := 'L'
			if i == 0 {
				cmd = 'M'
			}
			fmt.Fprintf(&b, "%c%.1f %.1f ", cmd, x(p.X), y(get(p)))
		}
		return b.String()
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="serif" font-size="16" text-anchor="middle">Figure 4.1: CDF of the Bus Waiting Time (%d agents, load %.1f)</text>`,
		width/2, f.N, f.Load)

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`,
		mLeft, mTop+plotH, width-mRight, mTop+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black"/>`,
		mLeft, mTop, mLeft, mTop+plotH)
	// Y ticks at 0, .25, .5, .75, 1 with gridlines.
	for i := 0; i <= 4; i++ {
		p := float64(i) / 4
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			mLeft, y(p), width-mRight, y(p))
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="serif" font-size="12" text-anchor="end">%.2f</text>`,
			mLeft-6, y(p)+4, p)
	}
	// X ticks: five divisions.
	for i := 0; i <= 5; i++ {
		v := maxX * float64(i) / 5
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="serif" font-size="12" text-anchor="middle">%.0f</text>`,
			x(v), mTop+plotH+18, v)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="serif" font-size="13" text-anchor="middle">waiting time (bus transaction times)</text>`,
		width/2, height-12)

	// Mean-wait marker.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#999" stroke-dasharray="4 3"/>`,
		x(f.W), mTop, x(f.W), mTop+plotH)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="serif" font-size="11" text-anchor="middle" fill="#555">W = %.1f</text>`,
		x(f.W), mTop-4, f.W)

	// The two CDFs.
	fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="#1f77b4" stroke-width="2"/>`,
		path(func(p experiment.FigurePoint) float64 { return p.FCFS }))
	fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="#d62728" stroke-width="2" stroke-dasharray="6 3"/>`,
		path(func(p experiment.FigurePoint) float64 { return p.RR }))

	// Legend.
	lx, ly := mLeft+20, mTop+16
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#1f77b4" stroke-width="2"/>`, lx, ly, lx+30, ly)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="serif" font-size="13">FCFS</text>`, lx+36, ly+4)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#d62728" stroke-width="2" stroke-dasharray="6 3"/>`, lx, ly+20, lx+30, ly+20)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="serif" font-size="13">RR</text>`, lx+36, ly+24)

	b.WriteString(`</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}
