package pagerankvm

import (
	"pagerankvm/internal/testbed"
)

// GENI-style testbed emulation (internal/testbed): a centralized
// controller assigning jobs to per-PM agents over message passing.
type (
	// TestbedConfig parameterizes a testbed run.
	TestbedConfig = testbed.Config
	// TestbedJob is one job (emulated VM) with its lease window.
	TestbedJob = testbed.Job
	// TestbedResult mirrors the paper's Figure 4/8 metrics.
	TestbedResult = testbed.Result
	// TestbedHarness owns the agents of one experiment.
	TestbedHarness = testbed.Harness
	// TestbedController is the centralized scheduler.
	TestbedController = testbed.Controller
	// TestbedTransport selects in-memory pipes or loopback TCP.
	TestbedTransport = testbed.Transport
	// TestbedFaultConfig parameterizes deterministic fault injection
	// on the control protocol (drops, errors, delays, conn closes).
	TestbedFaultConfig = testbed.FaultConfig
)

// Testbed transports.
const (
	TestbedInMemory = testbed.TransportInMemory
	TestbedTCP      = testbed.TransportTCP
)

// TestbedPMType is the emulated instance type name used by the
// harness.
const TestbedPMType = testbed.PMType

// LaunchTestbed starts numPMs agents over the chosen transport.
func LaunchTestbed(numPMs int, tr TestbedTransport) (*TestbedHarness, error) {
	return testbed.Launch(numPMs, tr)
}

// LaunchTestbedWithFaults is LaunchTestbed with every controller-side
// connection wrapped in a seeded deterministic fault injector; the
// controller's retry/recovery path (TestbedConfig.CallTimeout,
// CallRetries, RetryBackoff) turns those faults into retries and, when
// an agent stays unreachable, dead-agent recovery.
func LaunchTestbedWithFaults(numPMs int, tr TestbedTransport, faults *TestbedFaultConfig) (*TestbedHarness, error) {
	return testbed.LaunchWithFaults(numPMs, tr, faults)
}

// ParseTestbedFaults parses the -faults flag syntax of cmd/prvm-exp
// (e.g. "seed=7,drop=0.01,err=0.01,delay=5ms,delayprob=0.05").
func ParseTestbedFaults(spec string) (TestbedFaultConfig, error) {
	return testbed.ParseFaultSpec(spec)
}

// NewTestbedController assembles a controller over a harness.
func NewTestbedController(cfg TestbedConfig, h *TestbedHarness, placer Placer,
	evictor Evictor, jobs []TestbedJob) (*TestbedController, error) {
	return testbed.NewController(cfg, h.Cluster(), placer, evictor, h.Conns(), jobs)
}

// TestbedRegistry builds the rank-table registry for the testbed PM
// type (4 cores x 4 vCPU slots, job types [1,1] and [1,1,1,1]).
func TestbedRegistry(opts RankOptions) (*Registry, error) {
	return testbed.NewRegistry(opts)
}

// GenTestbedJobs builds the synthetic job stream of the Figure 4/8
// experiments.
func GenTestbedJobs(cfg testbed.JobConfig) ([]TestbedJob, error) {
	return testbed.GenJobs(testbed.NewJobVM, cfg)
}

// TestbedJobConfig parameterizes GenTestbedJobs.
type TestbedJobConfig = testbed.JobConfig
