package workload

// RunCluster exposes runCluster to the external tests, which run cells
// on a pure-heap engine as the timer wheel's reference.
var RunCluster = runCluster
