// Package repro's root benchmark suite regenerates every experiment of the
// paper's evaluation (the E1–E16 index in DESIGN.md) plus the A1–A3
// ablations: one benchmark per table/figure claim, each running the
// corresponding experiment in quick mode per iteration. Run with:
//
//	go test -bench=. -benchmem
//
// For the full tables use: go run ./cmd/experiments
package repro

import (
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(true)
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkE1HiFiOverhead regenerates §5.1.2.1's 59 vs 2.18 Mb/s peak
// overhead comparison.
func BenchmarkE1HiFiOverhead(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Senescence regenerates the C·S·T sample-spacing claim.
func BenchmarkE2Senescence(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3BurstAccuracy regenerates the burst-length accuracy sweep.
func BenchmarkE3BurstAccuracy(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4ClockSync regenerates the offset-exchange vs NTP comparison.
func BenchmarkE4ClockSync(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5LoadLoss regenerates the RMON/SNMP-under-load table.
func BenchmarkE5LoadLoss(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6TrapFlood regenerates the management-station overrun table.
func BenchmarkE6TrapFlood(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Fidelity regenerates the counter-fidelity comparison.
func BenchmarkE7Fidelity(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Reachability regenerates the instrumentation-point table.
func BenchmarkE8Reachability(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9MIBCoverage regenerates the 5-of-22 state variable claim.
func BenchmarkE9MIBCoverage(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Scalability regenerates the overhead/senescence scaling table.
func BenchmarkE10Scalability(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11LivenessPolling regenerates the detection-latency table.
func BenchmarkE11LivenessPolling(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Resilience regenerates the chaos-vs-resilience table.
func BenchmarkE12Resilience(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Telemetry regenerates the self-telemetry observer-effect table.
func BenchmarkE13Telemetry(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkA1TrapVsInform regenerates the notification-mechanism ablation.
func BenchmarkA1TrapVsInform(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkA2ConcurrencyFrontier regenerates the sequencer ablation.
func BenchmarkA2ConcurrencyFrontier(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkA3BulkRetrieval regenerates the walk-vs-bulk ablation.
func BenchmarkA3BulkRetrieval(b *testing.B) { benchExperiment(b, "A3") }
