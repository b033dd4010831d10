package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/serve"
	"repro/internal/store"
)

// mapdConfig is the serve.Config that cmd/mapd's flag defaults produce,
// over the given atlas. traced=false swaps mapd's tracer for Tracer: nil
// (the baseline of tracing.overhead_ms). mapd's exemplar log lines go to
// io.Discard: formatting them is the server's cost, printing them is not.
func mapdConfig(st *store.Store, reg *obs.Registry, traced bool) serve.Config {
	clock := serve.SystemClock{}
	cfg := serve.Config{
		QueueDepth:      64,
		EvalWorkers:     2,
		BatchMax:        32,
		MaxSearches:     2,
		CacheEntries:    1 << 16,
		DefaultDeadline: 30 * time.Second,
		Clock:           clock,
		Obs:             reg,
		Store:           st,
	}
	if traced {
		log := obs.NewLogger(io.Discard, obs.LevelInfo).WithNow(time.Now)
		cfg.Tracer = tracing.New(tracing.Options{
			Seed:      1,
			Capacity:  256,
			ExemplarK: 4,
			Clock:     clock,
			OnExemplar: func(rec tracing.Record) {
				log.Info("slow-request exemplar retained",
					"trace_id", rec.TraceID, "route", rec.Route,
					"outcome", rec.Outcome, "duration_ns", rec.DurationNS)
			},
		})
	}
	return cfg
}

// instance is one mapd server over one atlas directory, optionally
// behind a loopback listener with its own keep-alive client.
type instance struct {
	st      *store.Store
	srv     *serve.Server
	reg     *obs.Registry
	openDur time.Duration

	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// startServer recovers the atlas in dir and constructs the server; with
// listen it also serves it on a loopback port.
func startServer(dir string, traced, listen bool) (*instance, error) {
	reg := obs.New()
	t0 := time.Now()
	st, err := store.Open(atlasFS{}, dir, store.Options{Obs: reg})
	if err != nil {
		return nil, fmt.Errorf("recover atlas: %w", err)
	}
	in := &instance{st: st, reg: reg, openDur: time.Since(t0)}
	if !st.Report().Healthy() {
		st.Close()
		return nil, fmt.Errorf("recovered atlas is unhealthy: %+v", st.Report())
	}
	in.srv, err = serve.NewServer(mapdConfig(st, reg, traced))
	if err != nil {
		st.Close()
		return nil, err
	}
	if !listen {
		return in, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.stop()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.httpSrv = &http.Server{Handler: in.srv.Handler()}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	in.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	return in, nil
}

// stop shuts the listener, drains the server and closes the atlas, in
// cmd/mapd's order, and waits for the serving goroutine to return.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if in.httpSrv != nil {
		in.client.CloseIdleConnections()
		errs = append(errs, in.httpSrv.Shutdown(ctx))
		if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, in.srv.Drain(ctx))
	in.srv.Close()
	errs = append(errs, in.st.Close())
	return errors.Join(errs...)
}

// metrics reads the server's registry through its public endpoint,
// which publishes the EvalCache gauges first.
func (in *instance) metrics() (obs.Snapshot, error) {
	return getMetrics(in.srv.Handler())
}
