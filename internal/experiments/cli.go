package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"pagerankvm/internal/obs"
)

// ParseCounts parses a comma-separated list of positive integers — the
// -vms and -jobs flags of the sweep commands.
func ParseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// Telemetry is the sweep commands' -obsaddr / -metrics-out wiring. It
// returns the observer — nil, instrumentation disabled, when neither
// flag is set; served live on addr (with a ring of recent decision
// traces on /events) when that one is — and the function to call at
// exit, which writes the final snapshot to metricsOut when set.
func Telemetry(addr, metricsOut string) (*obs.Observer, func() error, error) {
	if addr == "" && metricsOut == "" {
		return nil, func() error { return nil }, nil
	}
	o := obs.New()
	if addr != "" {
		ring := obs.NewRingSink(4096)
		o.SetSink(ring)
		// The stop handle is deliberately dropped: the endpoint serves
		// for the remaining process lifetime.
		bound, _, err := obs.Serve(addr, o, ring)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s (/metrics /events /debug/pprof/)\n", bound)
	}
	return o, func() error {
		if metricsOut == "" {
			return nil
		}
		if err := o.WriteFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", metricsOut)
		return nil
	}, nil
}
