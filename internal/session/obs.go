package session

import (
	"flag"
	"fmt"
	"os"

	"ucudnn/internal/core"
	"ucudnn/internal/debugserver"
	"ucudnn/internal/faults"
	"ucudnn/internal/flight"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
)

// ObsFlags is the observability flag block the runner CLIs share:
// -metrics, -faults, -profile and -debug-addr, with one lifecycle behind
// them (Run).
type ObsFlags struct {
	Metrics   string
	Faults    string
	Profile   string
	DebugAddr string
}

// Register declares the flags on fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "", "write µ-cuDNN metrics at exit (\"-\" for stdout, .prom for Prometheus)")
	fs.StringVar(&f.Faults, "faults", "", "arm a fault-injection schedule, e.g. \"ucudnn_fp_convolve=nth:3;ucudnn_fp_arena_grow=every:2,shrink=4\"")
	fs.StringVar(&f.Profile, "profile", "", "write a per-phase cost-attribution report at exit (\"-\" for a table on stdout, else JSON)")
	fs.StringVar(&f.DebugAddr, "debug-addr", os.Getenv("UCUDNN_DEBUG_ADDR"),
		"serve /debug/ucudnn/ endpoints on this address, e.g. localhost:6060 (default $UCUDNN_DEBUG_ADDR)")
}

// Run brackets body with everything the flags ask for: the SIGQUIT
// flight dump, the armed fault schedule, one shared metrics registry
// (created when -metrics or -debug-addr is given, so profiler series
// reach the -metrics file too; nil otherwise), the debug server and the
// phase profiler. After a successful body it writes the profile and
// metrics files.
func (f ObsFlags) Run(body func(reg *obs.Registry) error) error {
	flight.DumpOnSignal()
	report, err := armFaults(f.Faults)
	if err != nil {
		return err
	}
	defer report()
	var reg *obs.Registry
	if f.Metrics != "" || f.DebugAddr != "" {
		reg = obs.NewRegistry()
	}
	if f.DebugAddr != "" {
		srv, err := debugserver.Start(f.DebugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/ucudnn/\n", srv.Addr())
	}
	if f.Profile != "" {
		prof.Enable()
		prof.SetMetrics(reg)
		defer prof.Disable()
	}
	if err := body(reg); err != nil {
		return err
	}
	if err := core.WriteProfileFile(f.Profile); err != nil {
		return err
	}
	flight.SyncMetrics(reg)
	return reg.WriteFile(f.Metrics)
}

// armFaults installs the fault schedule (if any) and returns a closure
// that disarms it and prints the fired shots, so any failure under
// injection is reproducible from the output alone.
func armFaults(spec string) (func(), error) {
	if spec == "" {
		return func() {}, nil
	}
	freg, err := faults.Parse(spec)
	if err != nil {
		return nil, err
	}
	faults.Install(freg)
	return func() {
		faults.Install(nil)
		fmt.Fprintf(os.Stderr, "faults: schedule %q fired [%s]\n", freg.String(), freg.ShotLog())
	}, nil
}
