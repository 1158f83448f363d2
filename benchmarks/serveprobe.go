package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/serve"
)

// serveProbe carries the single-caller serve numbers from the live
// server to the end of the run, where the mirror and record probes
// supply the layers below and the stage table is assembled.
type serveProbe struct {
	loopbackPlace, handlerPlace, handlerRelease, nowalPlace float64 // µs, p50
}

// stepN issues n ops on l and returns the p50 place and release
// latencies in µs.
func stepN(l *loader, n int) (placeUS, releaseUS float64) {
	var places, releases []int64
	for i := 0; i < n; i++ {
		kind, d := l.step()
		if kind == kindPlace {
			places = append(places, int64(d))
		} else {
			releases = append(releases, int64(d))
		}
	}
	sortInts(places)
	sortInts(releases)
	return float64(percentile(places, 50)) / 1e3, float64(percentile(releases, 50)) / 1e3
}

// probeServe times one caller against the live server three ways —
// over loopback, straight into the handler, and into an identical
// server without a WAL — plus the client against a stub, so that a
// request's time splits into network+net/http, the daemon's own path,
// and the WAL.
func probeServe(e *env, rc runCfg, res *result, sv *served, l *loader, z serveSizes) (*serveProbe, error) {
	pr := &serveProbe{}
	sock := l.p
	tr, ops := rc.tr, rc.probes().serveOps

	l.tr, l.span = tr, "http.request"
	pr.loopbackPlace, _ = stepN(l, ops)

	l.p, l.span = handlerPoster{sv.rig.srv}, "serve.handler"
	pr.handlerPlace, pr.handlerRelease = stepN(l, ops)
	l.p, l.tr = sock, nil
	if l.firstErr != nil {
		return nil, fmt.Errorf("serve probe: %w", l.firstErr)
	}

	// GET /v1/cluster (summary form), the operator's poll.
	const gets = 20
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if code, _, err := sv.ctl.get("/v1/cluster"); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("GET /v1/cluster: status %d: %v", code, err)
		}
	}
	t1 := time.Now()
	tr.record("serve.cluster_get", t0, t1, gets)
	res.layer["serve.cluster_get_ms"] = t1.Sub(t0).Seconds() * 1e3 / gets

	// The same server with DataDir "": handler minus this is the WAL.
	cfg := serveConfig(e, sv.reg, z, sv.seed, "", obs.New(), nil)
	nowal, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	nl := &loader{e: e, p: handlerPoster{nowal}, rng: rand.New(rand.NewSource(sv.seed))}
	for i := 0; i < z.fillVMs; i++ {
		nl.nextID++
		nl.place(nl.nextID, e.vmType(nl.rng))
	}
	nl.target = len(nl.resident)
	nl.tr, nl.span = tr, "serve.handler_nowal"
	pr.nowalPlace, _ = stepN(nl, ops)
	nowal.Kill()
	if nl.firstErr != nil {
		return nil, fmt.Errorf("no-WAL probe: %w", nl.firstErr)
	}

	us, err := stubClientUS(tr, ops)
	if err != nil {
		return nil, err
	}
	res.layer["loadgen.client_us"] = us
	return pr, nil
}

// stubClientUS is the load generator's own cost: its p50 round trip
// against a handler that answers a canned 200.
func stubClientUS(tr *tracer, ops int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	canned := []byte(`{"vm":1,"pm":1,"score":0,"seq":1}` + "\n")
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned) // the client is gone if this fails
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	c, err := dial(ln.Addr().String())
	var lats []int64
	for i := 0; err == nil && i < ops; i++ {
		t0 := time.Now()
		_, _, err = c.post("/v1/place", `{"vm":1,"type":"m3.medium"}`)
		t1 := time.Now()
		tr.record("loadgen.stub_request", t0, t1, int64(i))
		lats = append(lats, int64(t1.Sub(t0)))
	}
	if c != nil {
		c.close()
	}
	cerr := hs.Close()
	<-done
	if err == nil {
		err = cerr
	}
	sortInts(lats)
	return float64(percentile(lats, 50)) / 1e3, err
}

// finish runs the layer probes below serve at one shard's scale and
// assembles the serve.* derived metrics and the stage table: what one
// place request over loopback is made of.
func (pr *serveProbe) finish(e *env, rc runCfg, res *result, z serveSizes) error {
	m, err := probeCommon(e, rc, res, mirrorSpec{
		pmsPerType: z.pmsPerType / serveShards,
		fill:       z.fillVMs / serveShards,
	})
	if err != nil {
		return err
	}
	if err := probeRecord(e, rc.tr, res, m.ops); err != nil {
		return err
	}
	place := res.layer["placement.place_us"]
	host := res.layer["placement.host_ns"] / 1e3
	op := res.layer["record.op_ns"] / 1e3
	flush := res.layer["record.flush_us"]

	res.layer["serve.loopback_place_us"] = pr.loopbackPlace
	res.layer["serve.handler_place_us"] = pr.handlerPlace
	res.layer["serve.handler_release_us"] = pr.handlerRelease
	res.layer["serve.nowal_place_us"] = pr.nowalPlace
	res.layer["serve.wal_us"] = pr.handlerPlace - pr.nowalPlace
	res.layer["serve.http_us"] = pr.loopbackPlace - pr.handlerPlace
	res.layer["serve.unattributed_us"] = pr.handlerPlace - place - host - op - flush

	// loopback = http + handler; handler = no-WAL handler + WAL;
	// no-WAL handler = serve's own path + Place + Host;
	// WAL = record.op + record.flush + what the probes cannot see.
	res.stages = stageTable(pr.loopbackPlace,
		[]string{"http", "serve (self)", "placement.place", "placement.host", "record.op", "record.flush"},
		map[string]float64{
			"http":            pr.loopbackPlace - pr.handlerPlace,
			"serve (self)":    pr.nowalPlace - place - host,
			"placement.place": place,
			"placement.host":  host,
			"record.op":       op,
			"record.flush":    flush,
		})
	return nil
}
