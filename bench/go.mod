// The benchmark is a module of its own so that it builds with its own
// build file; it reaches the monitor's packages through the replace below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
