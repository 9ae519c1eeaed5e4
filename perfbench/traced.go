package main

import (
	"fmt"
	"time"
)

// The traced run (--trace 1) splits --seconds into:
//
//	30%  the workload untraced: end-to-end numbers to subtract, and the
//	     whole-process runtime.* counts
//	30%  the workload traced: spans around every call into a layer, the
//	     daemon's observer events, the transport counts
//	10%  a traced probe of the other end, so every per-layer metric has
//	     a reading on every workload: serve-solo's loop for the sims,
//	     sim-paper's calls for the serving workloads
//	30%  the ladder's six rungs, 5% each
//
// Per-layer metric, and the end-to-end metric it should move:
//
//	bussim.ns_per_completion       reference ns inside Simulate per completion:
//	                               ops_per_s on both sims
//	bussim.completions             exact counts from Result over one pass,
//	bussim.arbitrations            and events through an obs counter on
//	bussim.exposed_arbs            Config.Observer: a simulator-only
//	bussim.events                  speed-up leaves all four identical
//	bussim.allocs_per_completion   ops_per_s and heap_peak_mb on sim-1024
//	bussim.raw_completions_per_s   how fast the host was during the run,
//	host.ref_rate                  unnormalized
//	client.release_p50_ms          ops_per_s on serve-solo
//	arbd.queue_wait_p50_ms         request to service start: wait_p50_ms on serve-solo
//	arbd.hold_p50_ms               service start to end (grant delivery, client
//	                               turnaround, release hop): ops_per_s on serve-contended
//	arbd.idle_gap_p50_ms           service end to the next start while a line is
//	                               up: ops_per_s and wait_p50_ms on serve-contended
//	arbd.grants_per_arbitration    grants over arbitration resolves: the failed
//	                               share on serve-contended
//	transport.{reads,writes,bytes}_per_op  server-side calls through a counting
//	                               listener: ops_per_s on serve-contended once a
//	                               cycle is CPU-bound; flat on serve-solo
//	runtime.allocs_per_op          whole process: ops_per_s on serve-contended,
//	runtime.cpu_us_per_op          not the sims (on the sims the collections
//	runtime.gc_cycles              include the one forced per pass)
//	ladder.*_rtt_p50_ms            wait_p50_ms on serve-solo; adjacent rungs
//	                               attribute the round trip to a layer
func (b *bench) traced(path string) (*result, error) {
	part := func(f float64) time.Duration { return time.Duration(f * float64(b.dur)) }
	// The tracer's buffers are allocated after the untraced stretch, so
	// they do not weigh on its heap_peak_mb.
	var tr *tracer
	layers := map[string]metric{}
	notes := map[string]string{}
	var untraced, traced map[string]metric

	if spec := b.w.sim; spec != nil {
		heap := &heapPeak{p: b.proc}
		timer, fairness, err := b.simPrep(spec, heap)
		if err != nil {
			return nil, err
		}
		p0 := b.proc.read()
		ph := timer.runPasses(time.Now().Add(part(0.3)), maxSimCalls)
		p1 := b.proc.read()
		b.countSim(ph)
		untraced, _ = simEndToEnd(ph, timer.calls, fairness, heap)
		runtimeLayers(layers, p0, p1, ph.refHost, float64(ph.attempted))

		tr = newTracer(maxSpans, maxSpans)
		timer.tracer = tr
		ph = timer.runPasses(time.Now().Add(part(0.3)), maxSimCalls)
		b.countSim(ph)
		traced, _ = simEndToEnd(ph, timer.calls, fairness, heap)
		b.simLayers(layers, notes, timer, ph, b.w.name)
		solo, _ := workloadByName("serve-solo")
		if _, err := b.serveLayers(layers, notes, tr, solo.serve, part(0.1), "serve-solo probe"); err != nil {
			return nil, err
		}
	} else {
		spec := b.w.serve
		s, setup, err := b.servePrep(spec)
		if err != nil {
			return nil, err
		}
		win := b.serveWindow(s, newLoadGen(spec, b.report), part(0.3), nil)
		s.close()
		untraced, _ = win.endToEnd(setup)
		runtimeLayers(layers, win.p0, win.p1, 0, float64(win.g.ops.Load()))

		tr = newTracer(maxSpans, maxSpans)
		twin, err := b.serveLayers(layers, notes, tr, spec, part(0.3), b.w.name)
		if err != nil {
			return nil, err
		}
		traced, _ = twin.endToEnd(setup)
		paper, _ := workloadByName("sim-paper")
		timer, _, err := b.simPrep(paper.sim, &heapPeak{p: b.proc})
		if err != nil {
			return nil, err
		}
		timer.tracer = tr
		ph := timer.runPasses(time.Now().Add(part(0.1)), maxSimCalls)
		b.countSim(ph)
		b.simLayers(layers, notes, timer, ph, "sim-paper probe")
	}
	b.ladder(layers, notes, part(0.05))

	printMetrics(b.out, fmt.Sprintf("%s seed %d: per layer, %d operations attempted, %d failed",
		b.w.name, b.seed, b.attempted, b.failed), layers, notes)
	fmt.Fprintf(b.out, "tracing overhead (traced minus untraced, same run):\n")
	for _, m := range endToEndNames {
		u, t := untraced[m].Value, traced[m].Value
		fmt.Fprintf(b.out, "  %-34s %12.6g -> %12.6g %-6s (%+.1f%%)\n", m, u, t, untraced[m].Unit, 100*(t-u)/u)
	}
	fmt.Fprintf(b.out, "spans (%d recorded, %d dropped), median duration and self time in ms:\n",
		len(tr.recorded()), tr.dropped.Load())
	for _, s := range summarize(tr.recorded()) {
		fmt.Fprintf(b.out, "  %-18s %8d %12.6g %12.6g\n", s.name, s.count, s.durP50ms, s.selfP50ms)
	}
	if err := writeSpans(path, tr.recorded()); err != nil {
		b.report("writing spans: %v", err)
	} else {
		fmt.Fprintf(b.out, "spans written to %s\n", path)
	}
	return b.result(layers), nil
}

// maxSpans bounds the spans and the observer events a traced run keeps
// (preallocated); beyond it they are counted as dropped.
const maxSpans = 1 << 19

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{"ops_per_s", "wait_p50_ms", "wait_p90_ms", "fairness_ratio", "heap_peak_mb", "setup_s"}

func (b *bench) countSim(ph *simPhase) {
	b.attempted += int64(ph.attempted)
	b.failed += int64(ph.failed)
}

// runtimeLayers are whole-process costs per operation over an untraced
// stretch, less the reference slices taken meanwhile.
func runtimeLayers(layers map[string]metric, p0, p1 procSnapshot, refHost time.Duration, ops float64) {
	layers["runtime.allocs_per_op"] = metric{float64(p1.allocs-p0.allocs) / ops, "count"}
	layers["runtime.cpu_us_per_op"] = metric{float64(p1.cpu-p0.cpu-refHost) / 1e3 / ops, "us"}
	layers["runtime.gc_cycles"] = metric{float64(p1.gcs - p0.gcs), "count"}
}

// simLayers reads the bussim layer off a traced phase, then runs one
// observed pass for the event count. The observer must not perturb
// the run: its counts must equal the untraced ones.
func (b *bench) simLayers(layers map[string]metric, notes map[string]string, timer *simTimer, ph *simPhase, from string) {
	var first simCounts
	for _, c := range timer.first {
		first.completions += c.completions
		first.arbitrations += c.arbitrations
		first.exposed += c.exposed
	}
	observed, events := observedCounts(timer.calls)
	b.attempted += int64(len(timer.calls))
	if observed != first {
		b.report("observed pass counts %+v differ from the unobserved %+v", observed, first)
		b.failed += int64(len(timer.calls))
	}
	comps := float64(ph.completions)
	layers["bussim.ns_per_completion"] = metric{ph.refSec / comps * 1e9, "ns"}
	layers["bussim.completions"] = metric{float64(first.completions), "count"}
	layers["bussim.arbitrations"] = metric{float64(first.arbitrations), "count"}
	layers["bussim.exposed_arbs"] = metric{float64(first.exposed), "count"}
	layers["bussim.events"] = metric{float64(events), "count"}
	layers["bussim.allocs_per_completion"] = metric{float64(ph.allocs) / comps, "count"}
	layers["bussim.raw_completions_per_s"] = metric{comps / ph.host.Seconds(), "1/s"}
	layers["host.ref_rate"] = metric{median(ph.refRates), "1/s"}
	src := fmt.Sprintf("(%s, %d calls)", from, ph.attempted)
	for _, m := range []string{"bussim.ns_per_completion", "bussim.allocs_per_completion",
		"bussim.raw_completions_per_s", "host.ref_rate"} {
		notes[m] = src
	}
	notes["bussim.completions"] = fmt.Sprintf("(one pass of %s)", from)
}

// serveLayers runs spec traced for dur, with the tracer as the daemon's
// observer and a counting listener under the binary server, and reads
// the client, arbd shard and transport layers off it.
func (b *bench) serveLayers(layers map[string]metric, notes map[string]string, tr *tracer,
	spec *serveSpec, dur time.Duration, from string) (*serveWin, error) {
	counts := &ioCounts{}
	s, err := bringUp(spec, tr, countingWrap(counts))
	if err != nil {
		return nil, err
	}
	g := newLoadGen(spec, b.report)
	g.tracer = tr
	win := b.serveWindow(s, g, dur, counts)
	s.close()
	sl := tr.joinShard(spec.resourceOf, len(spec.resources), tr.ns(win.from), tr.ns(win.to))
	ops := float64(g.ops.Load())
	layers["client.release_p50_ms"] = metric{g.release.quantileMS(0.5), "ms"}
	layers["arbd.queue_wait_p50_ms"] = metric{median(sl.queue), "ms"}
	layers["arbd.hold_p50_ms"] = metric{median(sl.hold), "ms"}
	layers["arbd.idle_gap_p50_ms"] = metric{median(sl.idle), "ms"}
	layers["arbd.grants_per_arbitration"] = metric{float64(sl.grants) / float64(sl.arbitrates), "ratio"}
	layers["transport.reads_per_op"] = metric{float64(win.io1.reads-win.io0.reads) / ops, "count"}
	layers["transport.writes_per_op"] = metric{float64(win.io1.writes-win.io0.writes) / ops, "count"}
	layers["transport.bytes_per_op"] = metric{float64(win.io1.bytes-win.io0.bytes) / ops, "B"}
	src := fmt.Sprintf("(%s, %.0f cycles)", from, ops)
	for _, m := range []string{"client.release_p50_ms", "transport.reads_per_op", "transport.writes_per_op", "transport.bytes_per_op"} {
		notes[m] = src
	}
	notes["arbd.queue_wait_p50_ms"] = fmt.Sprintf("(%s, n=%d)", from, len(sl.queue))
	notes["arbd.hold_p50_ms"] = fmt.Sprintf("(%s, n=%d)", from, len(sl.hold))
	notes["arbd.idle_gap_p50_ms"] = fmt.Sprintf("(%s, n=%d)", from, len(sl.idle))
	notes["arbd.grants_per_arbitration"] = fmt.Sprintf("(%s, %d grants)", from, sl.grants)
	return win, nil
}

// ladder runs the six rungs, dur each.
func (b *bench) ladder(layers map[string]metric, notes map[string]string, dur time.Duration) {
	solo, _ := workloadByName("serve-solo")
	rungs := []struct {
		name string
		run  func(deadline time.Time) (float64, int, error)
	}{
		{"ladder.daemon_rtt_p50_ms", daemonRung},
		{"ladder.pipe_rtt_p50_ms", pipeRung},
		{"ladder.tcp_rtt_p50_ms", func(deadline time.Time) (float64, int, error) {
			s, err := bringUp(solo.serve, nil, nil)
			if err != nil {
				return 0, 0, err
			}
			defer s.close()
			return clientRung(deadline, s.clients[0])
		}},
		{"ladder.tcp_echo_rtt_p50_ms", echoRung},
		{"ladder.http_rtt_p50_ms", httpRung},
		{"ladder.forward_rtt_p50_ms", forwardRung},
	}
	for _, r := range rungs {
		p50, n, err := r.run(time.Now().Add(dur))
		b.attempted += int64(n)
		if err != nil {
			// A rung that breaks is a failed operation, not a lost
			// run: the other layers' numbers still print.
			b.report("%s: %v", r.name, err)
			b.attempted++
			b.failed++
		}
		layers[r.name] = metric{p50, "ms"}
		notes[r.name] = fmt.Sprintf("(n=%d)", n)
	}
}
