package arbd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"busarb/internal/obs"
)

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/acquire?resource=R&agent=I[&timeout=2s][&ttl=5s]
//	    Block until agent I is granted resource R (200 with a Lease
//	    JSON body), the timeout passes (408), or the daemon pushes
//	    back (503: full queue or shutting down).
//	POST /v1/release?resource=R&token=T
//	    End the lease T (200 with {"resource","released"}), or 404 if
//	    it is unknown or expired.
//	GET  /metricz
//	    Live per-resource JSON: per-agent grant and request tallies,
//	    arbitration and repass counts, and the most recent closed
//	    obs.Metrics window with per-agent wait quantiles.
//	GET  /healthz
//	    "ok" while the daemon is up.
//
// Every failure answers a JSON error envelope {"code","error"} —
// code is the taxonomy name (bad_request, not_found, deadline,
// overload), error the human-readable message — including requests
// for /v1/ paths that do not exist (the version guard: an endpoint
// this daemon does not speak is a well-formed not_found, never a
// silently misrouted success). The HTTP statuses and envelope codes
// are the same taxonomy the binary transport ships as numeric error
// frames; busarb/client maps both onto its typed errors.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/acquire", d.handleAcquire)
	mux.HandleFunc("POST /v1/release", d.handleRelease)
	mux.HandleFunc("GET /metricz", d.handleMetricz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		// The version guard sits below the method-qualified patterns,
		// so it sees both wrong methods on real endpoints (405, with
		// the envelope the bare mux would not write) and endpoints
		// this daemon does not speak (404).
		switch r.URL.Path {
		case "/v1/acquire", "/v1/release":
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Sprintf("arbd: %s %s needs POST", r.Method, r.URL.Path))
		default:
			writeError(w, codeNotFound, fmt.Sprintf("arbd: no such endpoint %s %s", r.Method, r.URL.Path))
		}
	})
	return mux
}

// errorEnvelope is the JSON body of every HTTP failure.
type errorEnvelope struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// codeName names a taxonomy code for the envelope.
func codeName(code int) string {
	switch code {
	case codeBadRequest:
		return "bad_request"
	case codeNotFound:
		return "not_found"
	case codeDeadline:
		return "deadline"
	case codeOverload:
		return "overload"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	}
	return fmt.Sprintf("http_%d", code)
}

// writeError answers one failure with the envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorEnvelope{Code: codeName(code), Error: msg})
}

// writeStatusError answers a shard/daemon statusError with the
// envelope.
func writeStatusError(w http.ResponseWriter, serr *statusError) {
	writeError(w, serr.code, serr.msg)
}

// shardFor resolves the resource parameter, writing the error itself
// when it fails.
func (d *Daemon) shardFor(w http.ResponseWriter, r *http.Request) *shard {
	name := r.FormValue("resource")
	if name == "" {
		writeError(w, codeBadRequest, "arbd: missing resource parameter")
		return nil
	}
	s, ok := d.shards[name]
	if !ok {
		writeError(w, codeNotFound, fmt.Sprintf("arbd: unknown resource %q", name))
		return nil
	}
	return s
}

// parseDuration reads an optional duration parameter.
func parseDuration(r *http.Request, name string) (time.Duration, error) {
	v := r.FormValue(name)
	if v == "" {
		return 0, nil
	}
	dur, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("arbd: bad %s %q: %v", name, v, err)
	}
	if dur < 0 {
		return 0, fmt.Errorf("arbd: negative %s %q", name, v)
	}
	return dur, nil
}

func (d *Daemon) handleAcquire(w http.ResponseWriter, r *http.Request) {
	s := d.shardFor(w, r)
	if s == nil {
		return
	}
	var agent int
	if _, err := fmt.Sscanf(r.FormValue("agent"), "%d", &agent); err != nil {
		writeError(w, codeBadRequest, fmt.Sprintf("arbd: bad agent %q", r.FormValue("agent")))
		return
	}
	timeout, err := parseDuration(r, "timeout")
	if err != nil {
		writeError(w, codeBadRequest, err.Error())
		return
	}
	ttl, err := parseDuration(r, "ttl")
	if err != nil {
		writeError(w, codeBadRequest, err.Error())
		return
	}
	lease, serr := s.acquire(r.Context(), agent, timeout, ttl)
	if serr != nil {
		writeStatusError(w, serr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(lease)
}

// releaseResponse is /v1/release's success body, naming the resource
// with the same field spelling the acquire lease and /metricz use.
type releaseResponse struct {
	Resource string `json:"resource"`
	Released bool   `json:"released"`
}

func (d *Daemon) handleRelease(w http.ResponseWriter, r *http.Request) {
	s := d.shardFor(w, r)
	if s == nil {
		return
	}
	token := r.FormValue("token")
	if token == "" {
		writeError(w, codeBadRequest, "arbd: missing token parameter")
		return
	}
	if !s.releaseToken(token) {
		writeError(w, codeNotFound, "arbd: unknown or expired lease")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(releaseResponse{Resource: s.cfg.Name, Released: true})
}

// AgentMetrics is one agent's slice of a /metricz resource entry.
type AgentMetrics struct {
	// Grants and Requests are cumulative since daemon start.
	Grants   int64 `json:"grants"`
	Requests int64 `json:"requests"`
	// The wait quantiles summarize the most recent closed metrics
	// window (zero when the agent was idle in it): time from request
	// line assertion to lease end, in seconds.
	WaitP50 float64 `json:"wait_p50_s"`
	WaitP90 float64 `json:"wait_p90_s"`
	WaitMax float64 `json:"wait_max_s"`
}

// ResourceMetrics is one resource's /metricz entry.
type ResourceMetrics struct {
	Protocol     string         `json:"protocol"`
	Agents       []AgentMetrics `json:"agents"` // indexed by identity-1
	Arbitrations int64          `json:"arbitrations"`
	Repasses     int64          `json:"repasses"`
	// WindowStart/WindowEnd bound the closed metrics window the wait
	// quantiles come from, in seconds since daemon start; both zero
	// when no window has closed yet.
	WindowStart float64 `json:"window_start_s"`
	WindowEnd   float64 `json:"window_end_s"`
}

// Metrics snapshots every resource's live counters and latest metrics
// window. It is safe to call while the shard loops run: each shard's
// loop takes its snapshot between two inputs. After Close it reports
// the counters each loop left as it exited.
func (d *Daemon) Metrics() map[string]ResourceMetrics {
	out := make(map[string]ResourceMetrics, len(d.names))
	for _, name := range d.names {
		out[name] = d.shards[name].report()
	}
	return out
}

// report fetches a snapshot through the loop or, once the loop has
// exited, the one it left behind.
func (s *shard) report() ResourceMetrics {
	reply := make(chan ResourceMetrics, 1)
	select {
	case s.reportCh <- reply:
		return <-reply
	case <-s.stopped:
		return s.final
	}
}

// snapshot reads the shard's tallies and its latest closed metrics
// window.
func (s *shard) snapshot() ResourceMetrics {
	rm := ResourceMetrics{
		Protocol:     s.cfg.ProtocolName(),
		Agents:       make([]AgentMetrics, s.cfg.Agents),
		Arbitrations: s.tally.arbitrations,
		Repasses:     s.tally.repasses,
	}
	for id := 1; id <= s.cfg.Agents; id++ {
		rm.Agents[id-1] = AgentMetrics{
			Grants:   s.tally.grants[id],
			Requests: s.tally.requests[id],
		}
	}
	if wins := s.metrics.Windows(); len(wins) > 0 {
		win := wins[len(wins)-1]
		rm.WindowStart, rm.WindowEnd = win.Start, win.End
		for id := 1; id <= s.cfg.Agents && id <= len(win.Agents); id++ {
			a := win.Agents[id-1]
			rm.Agents[id-1].WaitP50 = a.WaitP50
			rm.Agents[id-1].WaitP90 = a.WaitP90
			rm.Agents[id-1].WaitMax = a.WaitMax
		}
	}
	return rm
}

// metriczPayload is the /metricz document.
type metriczPayload struct {
	UptimeSeconds float64                    `json:"uptime_s"`
	Resources     map[string]ResourceMetrics `json:"resources"`
}

func (d *Daemon) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(metriczPayload{
		UptimeSeconds: d.Uptime().Seconds(),
		Resources:     d.Metrics(),
	})
}

// obsProbeCheck pins at compile time that tally satisfies obs.Probe.
var _ obs.Probe = (*tally)(nil)
