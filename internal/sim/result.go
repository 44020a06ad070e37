package sim

import (
	"fmt"

	"repro/internal/topology"
)

// DeathReason explains why a simulation ended.
type DeathReason string

// Possible termination reasons.
const (
	// DeathModuleExtinct means every duplicate of some module died — the
	// paper's "critical nodes become dead" condition.
	DeathModuleExtinct DeathReason = "module-extinct"
	// DeathControllersDead means every central controller exhausted its
	// battery (Sec 7.3).
	DeathControllersDead DeathReason = "controllers-dead"
	// DeathUnreachable means an in-flight job could no longer reach any
	// living duplicate of its next module (network partition).
	DeathUnreachable DeathReason = "module-unreachable"
	// DeathMaxCycles means the configured cycle budget ran out before the
	// system died.
	DeathMaxCycles DeathReason = "max-cycles"
	// DeathStalled means no job made progress for many consecutive frames,
	// typically because every in-flight job is stuck behind a deadlock the
	// recovery mechanism could not break.
	DeathStalled DeathReason = "stalled"
	// DeathCancelled means the caller cancelled the run (Config.Cancel
	// closed) before the system died on its own. A cancelled result is a
	// truncated prefix of the run and must never be treated — or cached — as
	// the run's outcome.
	DeathCancelled DeathReason = "cancelled"
)

// EnergyBreakdown accounts for every picojoule drawn during a run, split by
// purpose.
type EnergyBreakdown struct {
	// ComputationPJ is energy spent on acts of computation (E_i per op).
	ComputationPJ float64
	// CommunicationPJ is energy spent transmitting packets on data links.
	CommunicationPJ float64
	// ControlUploadPJ is node energy spent on TDMA status upload slots.
	ControlUploadPJ float64
	// ControlDownloadPJ is shared-medium energy spent downloading routing
	// updates to the nodes.
	ControlDownloadPJ float64
	// ControllerPJ is energy consumed by the central controllers themselves
	// (bookkeeping and routing computation).
	ControllerPJ float64
	// AbortedPJ is energy drawn by operations or transmissions that could not
	// complete because the node browned out partway through; it was consumed
	// but produced no useful work.
	AbortedPJ float64
	// WastedPJ is energy stranded in node batteries that reached their
	// cutoff voltage (plus energy left in batteries at system death).
	WastedPJ float64
}

// TotalConsumedPJ returns all energy actually drawn from batteries or the
// shared medium during the run (excluding stranded energy).
func (e EnergyBreakdown) TotalConsumedPJ() float64 {
	return e.ComputationPJ + e.CommunicationPJ + e.ControlUploadPJ + e.ControlDownloadPJ + e.ControllerPJ + e.AbortedPJ
}

// ControlExchangePJ is the energy spent exchanging control information on the
// shared medium, the quantity the paper reports as overhead percentage in
// Sec 7.1.
func (e EnergyBreakdown) ControlExchangePJ() float64 {
	return e.ControlUploadPJ + e.ControlDownloadPJ
}

// ControlOverheadFraction is ControlExchangePJ divided by the total energy
// consumption (excluding controller-internal energy, which Sec 7.1 treats as
// an infinite external source).
func (e EnergyBreakdown) ControlOverheadFraction() float64 {
	total := e.ComputationPJ + e.CommunicationPJ + e.ControlExchangePJ()
	if total == 0 {
		return 0
	}
	return e.ControlExchangePJ() / total
}

// NodeStats captures per-node accounting, enabled by Config.CollectNodeStats.
type NodeStats struct {
	Node            topology.NodeID
	Module          int
	Operations      int
	PacketsRelayed  int
	ComputationPJ   float64
	CommunicationPJ float64
	ControlPJ       float64
	Dead            bool
	DeliveredPJ     float64
	RemainingPJ     float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Algorithm and MeshNodes identify the scenario.
	Algorithm string
	MeshNodes int
	// ControlPlane names the controller architecture that ran the TDMA frames
	// ("centralized" or "sharded").
	ControlPlane string

	// JobsCompleted is the figure of merit: the number of jobs finished
	// before the system died.
	JobsCompleted int
	// JobsLost counts jobs abandoned because the node holding them died.
	JobsLost int
	// LifetimeCycles is the simulated time at system death.
	LifetimeCycles int64
	// Frames is the number of TDMA frames that elapsed.
	Frames int64
	// RoutingRecomputes counts how often the controller re-ran the routing
	// algorithm because the reported state changed (under the sharded control
	// plane: the number of frames in which at least one region recomputed).
	RoutingRecomputes int
	// ShardRecomputes holds each region's recompute count under the sharded
	// control plane (nil for the centralized one, whose count is
	// RoutingRecomputes).
	ShardRecomputes []int
	// FullRecomputes and IncrementalRecomputes split the recomputations by
	// routing.DeltaWorkspace's crossover policy (summed across regions under
	// the sharded plane): full for the first computation, a liveness change
	// or a change past the dirty or affected crossover (and for every
	// recompute under Recompute "full"), incremental otherwise. The split is
	// a label on the size of the change, not the phase-2 path that ran:
	// under "incremental" every recompute after a controller workspace's
	// first repairs the previous shortest-path trees. Both paths produce
	// byte-identical tables for any EAR Q, so every other result field is
	// independent of the split; the split itself is part of every published
	// result.
	FullRecomputes        int
	IncrementalRecomputes int
	// DeadlockReports counts deadlock notifications uploaded to the
	// controller.
	DeadlockReports int
	// DeadNodes is the number of nodes whose batteries were exhausted.
	DeadNodes int
	// Reason explains the termination.
	Reason DeathReason

	// FaultsInjected and FaultsRecovered count fault-schedule transitions
	// applied during the run (Config.Faults); both are 0 without a schedule.
	FaultsInjected  int
	FaultsRecovered int
	// LinksBroken counts permanent wear breaks (a subset of FaultsInjected).
	LinksBroken int
	// RegionFailovers counts blocks of nodes changing serving region under
	// the sharded control plane (adoptions and hand-backs).
	RegionFailovers int
	// PeakAdoptedNodes is the largest number of nodes simultaneously served
	// by a non-home region during the run.
	PeakAdoptedNodes int

	// Energy is the full energy breakdown.
	Energy EnergyBreakdown

	// PayloadJobsVerified and PayloadMismatches report end-to-end AES
	// verification when Config.Key is set: every completed job's distributed
	// ciphertext is compared against the reference cipher.
	PayloadJobsVerified int
	PayloadMismatches   int

	// Nodes holds per-node statistics when enabled.
	Nodes []NodeStats
}

// String summarises the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%s on %d nodes: %d jobs completed (%d lost) in %d cycles, %s",
		r.Algorithm, r.MeshNodes, r.JobsCompleted, r.JobsLost, r.LifetimeCycles, r.Reason)
}
