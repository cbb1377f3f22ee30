package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// validConfig returns a config that passes validation; tests mutate one
// field at a time.
func validConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Net:           topology.MustFatTree(16),
		MsgFlits:      4,
		Lambda0:       0.001,
		Seed:          1,
		WarmupCycles:  100,
		MeasureCycles: 1000,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error; "" means valid
	}{
		{"valid", func(c *Config) {}, ""},
		{"nil net", func(c *Config) { c.Net = nil }, "Net is nil"},
		{"zero flits", func(c *Config) { c.MsgFlits = 0 }, "MsgFlits"},
		{"negative flits", func(c *Config) { c.MsgFlits = -3 }, "MsgFlits"},
		{"negative rate", func(c *Config) { c.Lambda0 = -0.1 }, "Lambda0"},
		{"NaN rate", func(c *Config) { c.Lambda0 = math.NaN() }, "Lambda0"},
		{"infinite rate", func(c *Config) { c.Lambda0 = math.Inf(1) }, "Lambda0"},
		{"negative warmup", func(c *Config) { c.WarmupCycles = -1 }, "warmup"},
		{"zero measure", func(c *Config) { c.MeasureCycles = 0 }, "measure"},
		{"negative measure", func(c *Config) { c.MeasureCycles = -10 }, "measure"},
		{"bad policy", func(c *Config) { c.Policy = UpLinkPolicy(99) }, "policy"},
		{"negative drain", func(c *Config) { c.DrainLimit = -1 }, "DrainLimit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig(t)
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// Run must reject it identically instead of misbehaving.
			if _, runErr := Run(context.Background(), cfg); runErr == nil || runErr.Error() != err.Error() {
				t.Errorf("Run error %v differs from Validate error %v", runErr, err)
			}
		})
	}
}

func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, validConfig(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunCancelsMidRun pins the in-loop cancellation: a deadline far
// shorter than the run's wall clock must abort the cycle loop, not wait
// for the simulation to finish.
func TestRunCancelsMidRun(t *testing.T) {
	cfg := validConfig(t)
	cfg.Lambda0 = 0.02
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 200_000_000 // hours of simulation if not cancelled
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, should abort within the cycle loop", elapsed)
	}
}

// TestRunOptionValidation pins that malformed options are rejected before
// any simulation work happens.
func TestRunOptionValidation(t *testing.T) {
	cfg := validConfig(t)
	ctx := context.Background()
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"negative replicas", WithReplicas(-2), "WithReplicas"},
		{"negative half-width", WithTermination(Termination{RelHalfWidth: -0.1}), "RelHalfWidth"},
		{"NaN half-width", WithTermination(Termination{RelHalfWidth: math.NaN()}), "RelHalfWidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(ctx, cfg, tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}
