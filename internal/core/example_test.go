package core_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// ExampleDatabase shows current-value vs last-known-value reporting, the
// §4.1 capability the measurement database exists for.
func ExampleDatabase() {
	db := core.NewDatabase()
	path := core.PathID("s1/rtds->c1/client")

	db.Record(core.Measurement{
		Path: path, Metric: metrics.Throughput,
		Value: 2.18e6, TakenAt: time.Second,
	})
	db.Record(core.Measurement{
		Path: path, Metric: metrics.Throughput,
		Err: "unreachable", TakenAt: 2 * time.Second,
	})

	cur, _ := db.Current(path, metrics.Throughput)
	last, _ := db.LastKnown(path, metrics.Throughput)
	fmt.Println("current ok:", cur.OK())
	fmt.Println("last known:", last.Value, "bits/s")
	age, _ := db.Senescence(5*time.Second, path, metrics.Throughput)
	fmt.Println("senescence:", age)
	// Output:
	// current ok: false
	// last known: 2.18e+06 bits/s
	// senescence: 3s
}

// ExampleCrossProductPaths builds the paper's Figure 4(b) path list.
func ExampleCrossProductPaths() {
	servers := []core.ProcessRef{
		{Host: "s1", Process: "rtds"},
		{Host: "s2", Process: "rtds"},
	}
	clients := []core.ProcessRef{
		{Host: "c1", Process: "client"},
		{Host: "c2", Process: "client"},
		{Host: "c3", Process: "client"},
	}
	paths := core.CrossProductPaths(servers, clients)
	fmt.Println(len(paths), "paths")
	fmt.Println(paths[0].ID)
	// Output:
	// 6 paths
	// s1/rtds->c1/client
}
