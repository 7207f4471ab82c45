package core

import (
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func exportFixture() *Database {
	db := NewDatabase()
	db.Record(Measurement{Path: "a->b", Metric: metrics.Throughput, Value: 1e6, TakenAt: time.Second})
	db.Record(Measurement{Path: "a->b", Metric: metrics.Throughput, Value: 3e6, TakenAt: 2 * time.Second})
	db.Record(Measurement{Path: "a->b", Metric: metrics.Throughput, Err: "timeout", TakenAt: 3 * time.Second})
	db.Record(Measurement{Path: "a->c", Metric: metrics.Reachability, Value: 1, TakenAt: time.Second})
	return db
}

func TestExportCSV(t *testing.T) {
	var sb strings.Builder
	if err := exportFixture().ExportCSV(&sb); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 { // header + 4 samples
		t.Fatalf("records = %d: %q", len(records), sb.String())
	}
	if records[0][0] != "path" || len(records[0]) != 7 {
		t.Fatalf("header = %v", records[0])
	}
	// Ordered by path then metric; a->b first.
	if records[1][0] != "a->b" || records[1][2] != "1e+06" {
		t.Fatalf("first row = %v", records[1])
	}
	if records[3][6] != "timeout" {
		t.Fatalf("error row = %v", records[3])
	}
	if records[4][0] != "a->c" || records[4][1] != "reachability" {
		t.Fatalf("last row = %v", records[4])
	}
}
