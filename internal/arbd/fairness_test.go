package arbd

import (
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
)

// TestNetworkedFairness is Table 4.1 over a socket: closed-loop
// clients saturate one resource through a full transport path and the
// bandwidth ratio t_N/t_1 (worst-served throughput over best-served)
// separates the protocols exactly as the paper's simulations do — the
// round-robin and FCFS protocols share evenly, fixed priority starves
// the low identities.
//
// The HTTP rows keep PR 4's scale (10 agents); the binary rows re-pin
// the same headline over the binary protocol at 100 multiplexed
// agents on one TCP connection.
func TestNetworkedFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive load run")
	}
	protocols := []struct {
		protocol string
		minRatio float64 // inclusive lower bound on t_N/t_1
		maxRatio float64 // inclusive upper bound
	}{
		{"RR1", 0.85, 1.15},
		{"FCFS2", 0.85, 1.15},
		{"FP", 0, 0.7}, // exclusive upper bound, checked below
	}
	transports := []struct {
		name     string
		agents   int
		requests int
		// serve starts the transport for d and returns a Dial target
		// plus a shutdown func.
		serve func(t *testing.T, d *Daemon) (string, func())
	}{
		{"http", 10, 30, func(t *testing.T, d *Daemon) (string, func()) {
			srv := httptest.NewServer(d.Handler())
			return srv.URL, srv.Close
		}},
		{"binary", 100, 15, func(t *testing.T, d *Daemon) (string, func()) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			bs := NewBinaryServer(d)
			go bs.Serve(ln)
			return "tcp://" + ln.Addr().String(), func() { bs.Close() }
		}},
	}
	for _, tr := range transports {
		for _, tc := range protocols {
			t.Run(fmt.Sprintf("%s/%s", tr.name, tc.protocol), func(t *testing.T) {
				d, err := New(Config{Resources: []ResourceConfig{{
					Name:     "bus",
					Agents:   tr.agents,
					Protocol: tc.protocol,
					Tick:     testTick,
				}}})
				if err != nil {
					t.Fatal(err)
				}
				target, shutdown := tr.serve(t, d)
				defer func() { shutdown(); d.Close() }()

				rep, err := RunLoad(LoadConfig{
					Targets:   []string{target},
					Resources: []string{"bus"},
					Agents:    tr.agents,
					Requests:  tr.requests,
					Seed:      1,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range rep.Agents {
					if a.Grants != int64(tr.requests) {
						t.Errorf("agent %d got %d grants, want %d", i+1, a.Grants, tr.requests)
					}
				}
				t.Logf("%s/%s: bandwidth ratio t_N/t_1 = %.3f (run %.2fs, pooled Wp50=%s Wp90=%s)",
					tr.name, tc.protocol, rep.BandwidthRatio, rep.Elapsed.Seconds(), rep.WaitP50, rep.WaitP90)
				if tc.protocol == "FP" {
					if rep.BandwidthRatio >= tc.maxRatio {
						t.Errorf("FP bandwidth ratio %.3f, want < %.2f: fixed priority should starve low identities at saturation",
							rep.BandwidthRatio, tc.maxRatio)
					}
					return
				}
				if rep.BandwidthRatio < tc.minRatio || rep.BandwidthRatio > tc.maxRatio {
					t.Errorf("%s bandwidth ratio %.3f outside [%.2f, %.2f]",
						tc.protocol, rep.BandwidthRatio, tc.minRatio, tc.maxRatio)
				}
			})
		}
	}
}
