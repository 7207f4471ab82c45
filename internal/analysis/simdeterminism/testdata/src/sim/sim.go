package sim

import (
	"math/rand"
	"runtime"
	"time"
)

type Kernel struct{ now time.Duration }

func (k *Kernel) Now() time.Duration { return k.now }

func bad() time.Duration {
	start := time.Now()          // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	_ = time.Since(start)        // want `time\.Since reads the wall clock`
	_ = time.After(time.Second)  // want `time\.After reads the wall clock`
	n := rand.Intn(10)           // want `rand\.Intn draws from the process-global source`
	return time.Duration(n)
}

func badShardCount() int {
	n := runtime.NumCPU() // want `runtime\.NumCPU reads host CPU topology`
	runtime.GOMAXPROCS(n) // want `runtime\.GOMAXPROCS reads host CPU topology`
	runtime.Gosched()     // not a CPU-topology probe: fine
	return n
}

func allowedShardCount() int {
	//lint:allow hostcpu sizing a diagnostic label, not simulation state
	return runtime.NumCPU()
}

func allowed() time.Duration {
	//lint:allow wallclock harness timing, not simulation state
	start := time.Now()
	return time.Since(start) //lint:allow wallclock same-line form
}

// trailingAllow: a comment that shares its line with code covers that line
// only, so the bare call below it is still flagged.
func trailingAllow() time.Duration {
	start := time.Now()      //lint:allow wallclock covers this line only
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func good(k *Kernel, rng *rand.Rand) time.Duration {
	_ = rand.New(rand.NewSource(1)) // constructors build private sources: fine
	return k.Now() + time.Duration(rng.Intn(10))*time.Second
}
