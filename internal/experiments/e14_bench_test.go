package experiments

import (
	"fmt"
	"testing"
)

// BenchmarkShardedWorkload is the wall-clock half of E14: the same fixed
// 8-region workload the table sweeps, timed at each shard count against
// the process clock (`make bench-shard`). One iteration is one full
// simulated run (-benchtime 1x style); the deterministic table rows prove
// correctness, this proves (or honestly disproves, on a 1-CPU host) that
// the partitioning buys parallelism.
func BenchmarkShardedWorkload(b *testing.B) {
	for _, sc := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", sc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e14Row(sc, 8, 1, 4, true)
			}
		})
	}
}
