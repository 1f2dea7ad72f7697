package obs

import (
	"fmt"
	"os"
	"path/filepath"

	"asmsim/internal/dash"
	"asmsim/internal/telemetry"
)

// CLIFlags are the observer flags the command-line tools share. Empty
// strings disable the corresponding observer.
type CLIFlags struct {
	// CPUProfile and MemProfile are profile output files.
	CPUProfile, MemProfile string
	// Pprof serves net/http/pprof; Dash serves the live dashboard and
	// pprof on one listener and takes precedence.
	Pprof, Dash string
	// Telemetry is the directory that receives quantum telemetry and,
	// at the end, the metrics.jsonl snapshot.
	Telemetry string
	// SLO reports that an SLO spec is evaluated; its alert series need
	// a registry.
	SLO bool
}

// CLI is a command's observer bootstrap: the profiler and dashboard
// listener, the metrics registry, and the bookkeeping that turns a
// sink's flush error into a failed exit.
type CLI struct {
	// Dash is the live dashboard; nil unless CLIFlags.Dash was set.
	Dash *dash.Server
	// Metrics is the registry; nil unless a telemetry directory, the
	// dashboard or an SLO spec asks for one.
	Metrics *telemetry.Registry
	prof    *telemetry.Profiler
	telDir  string
	failed  bool
}

// StartCLI creates the telemetry directory, the registry and the
// dashboard as f asks, starts the profiling hooks with the dashboard
// mounted on the pprof listener, and announces the listener on stderr.
func StartCLI(f CLIFlags) (*CLI, error) {
	c := &CLI{telDir: f.Telemetry}
	addr := f.Pprof
	if f.Dash != "" {
		c.Dash = dash.NewServer()
		addr = f.Dash
	}
	if f.Telemetry != "" {
		if err := os.MkdirAll(f.Telemetry, 0o755); err != nil {
			return nil, err
		}
	}
	if f.Telemetry != "" || f.Dash != "" || f.SLO {
		c.Metrics = telemetry.NewRegistry()
		c.Dash.SetRegistry(c.Metrics)
	}
	prof, err := telemetry.StartProfiler(f.CPUProfile, f.MemProfile, addr, c.Dash.Mount, c.Dash.MountMetrics)
	if err != nil {
		return nil, err
	}
	c.prof = prof
	if a := prof.PprofAddr(); a != "" {
		fmt.Fprintf(os.Stderr, "pprof server listening on http://%s/debug/pprof/\n", a)
		if c.Dash != nil {
			fmt.Fprintf(os.Stderr, "dashboard listening on http://%s/debug/asm/\n", a)
		}
	}
	return c, nil
}

// Flush reports err from flushing the sink named what on stderr and
// marks the invocation failed: observability data that could not be
// written must not exit zero.
func (c *CLI) Flush(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		c.failed = true
	}
}

// WriteMetrics writes the registry's final state as JSONL to
// metrics.jsonl in the telemetry directory. Without a telemetry
// directory it writes nothing: a registry kept only for the dashboard
// or the SLO engine leaves no file behind.
func (c *CLI) WriteMetrics() {
	if c.telDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(c.telDir, "metrics.jsonl"))
	if err == nil {
		err = c.Metrics.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	c.Flush("telemetry", err)
}

// Failed reports whether any Flush saw an error.
func (c *CLI) Failed() bool { return c.failed }

// Stop closes the dashboard, ending its SSE streams so the listener can
// drain, then stops the profiler and writes the heap profile.
func (c *CLI) Stop() {
	c.Dash.Close()
	c.prof.Stop()
}
