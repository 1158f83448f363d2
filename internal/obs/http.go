package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the observer over HTTP:
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/events         retained trace events (when sink is a *RingSink)
//	/debug/pprof/*  the net/http/pprof profiles
//
// sink may be nil; pass the observer's RingSink to expose /events.
func Handler(o *Observer, sink *RingSink) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = o.WriteProm(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var events []Event
		if sink != nil {
			events = sink.Events()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "pagerankvm telemetry: /metrics /events /debug/pprof/")
	})
	return mux
}

// Serve starts the telemetry endpoint on addr (":0" picks an ephemeral
// port) in a background goroutine and returns the bound address plus a
// stop function that closes the listener and all active connections,
// then waits for the serve goroutine to exit. Callers that want the
// endpoint for the remaining process lifetime simply never call stop.
func Serve(addr string, o *Observer, sink *RingSink) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(o, sink)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	stop := func() {
		_ = srv.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}
