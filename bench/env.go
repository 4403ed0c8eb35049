package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"

	"cryowire/internal/dse"
	"cryowire/internal/platform"
	"cryowire/internal/server"
	"cryowire/internal/sim"
)

// env is what every workload's set-up builds, whichever parts the
// workload then uses: a fresh platform with the five evaluation designs
// derived, the validated full DSE space, and the HTTP service started
// in process (server.Serve on a loopback listener) and answering
// /healthz. Every workload pays the same set-up, so setup_s measures the
// same thing on all four and work moved into any of these steps shows
// on each.
type env struct {
	designs []sim.Design
	space   dse.Space
	srv     *server.Server
	url     string
	client  *http.Client
	// stop ends Serve, which drains and returns its error on served.
	stop   context.CancelFunc
	served chan error
}

func setUp(r *runner) (*env, error) {
	designs, err := coldDerive()
	if err != nil {
		return nil, err
	}
	e := &env{designs: designs, space: dse.DefaultSpace(false)}
	if err := e.space.Validate(); err != nil {
		return nil, err
	}
	if e.srv, err = server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	var ctx context.Context
	ctx, e.stop = context.WithCancel(context.Background())
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ctx, ln) }()
	// The open-loop generator runs one sender per worker, each on a
	// connection of its own.
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: r.workers, MaxIdleConnsPerHost: r.workers}}
	status, _, err := e.send(http.MethodGet, "/healthz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/healthz: status %d", status)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	e.client.CloseIdleConnections()
	e.stop()
	<-e.served // nothing is in flight: every request has been answered
}

// send makes one request to the service and reads the whole response.
func (e *env) send(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, e.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// coldDerive builds a fresh platform and derives the five evaluation
// designs from it: the derivation every process pays before its first
// simulation.
func coldDerive() ([]sim.Design, error) {
	designs := sim.NewFactoryWith(platform.New()).Evaluation()
	if len(designs) != len(evalSlugs) {
		return nil, fmt.Errorf("sim.Factory.Evaluation returned %d designs, the benchmark names %d", len(designs), len(evalSlugs))
	}
	return designs, nil
}
