package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// drillDuration keeps each drill short enough for go test -race ./...
const drillDuration = 300 * time.Millisecond

// startServer serves cfg on an ephemeral loopback port for the test's
// lifetime and returns the address.
func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv.Addr().String()
}

// TestNetDrills runs every scenario with CI's client counts and leases
// against servers with CI's envelopes: one shared by churn, storm and
// disconnect, in that order, and a small admission envelope for flood.
func TestNetDrills(t *testing.T) {
	smoke := startServer(t, server.Config{MaxClients: 24})
	flood := startServer(t, server.Config{
		MaxClients:   40,
		MaxWaiters:   2,
		MaxInflight:  6,
		WriteTimeout: 100 * time.Millisecond,
	})
	for _, cfg := range []netConfig{
		{addr: smoke, scenario: "churn", clients: 4, ttl: 50 * time.Millisecond},
		{addr: smoke, scenario: "storm", clients: 4, ttl: 30 * time.Millisecond},
		{addr: smoke, scenario: "disconnect", clients: 8},
		{addr: flood, scenario: "flood", clients: 24},
	} {
		cfg.duration = drillDuration
		if err := runNet(cfg); err != nil {
			t.Errorf("%s: %v", cfg.scenario, err)
		}
	}
}

// TestFloodNeedsAdmissionControl is the drill's power case: a server
// without admission bounds never sheds, so the flood must fail.
func TestFloodNeedsAdmissionControl(t *testing.T) {
	addr := startServer(t, server.Config{MaxClients: 40})
	err := runNet(netConfig{addr: addr, scenario: "flood", clients: 24, duration: drillDuration})
	if err == nil || !strings.Contains(err.Error(), "never tripped admission control") {
		t.Fatalf("flood against an unbounded server: err = %v, want the admission-control failure", err)
	}
}

func TestNetConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		cfg  netConfig
		want string
	}{
		{netConfig{scenario: "churn", clients: 1, ttl: time.Second}, "-addr is required"},
		{netConfig{addr: "127.0.0.1:1", scenario: "flood"}, "-clients must be ≥ 1"},
		{netConfig{addr: "127.0.0.1:1", scenario: "pairs", clients: 1}, "unknown -scenario"},
		{netConfig{addr: "127.0.0.1:1", clients: 1}, "unknown -scenario"},
		{netConfig{addr: "127.0.0.1:1", scenario: "storm", clients: 1}, "needs a positive -ttl"},
	} {
		if err := runNet(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("runNet(%+v) = %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
}
