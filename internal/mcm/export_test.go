package mcm

// RandomConstraintGraph lends the search oracle's generator to the
// reference tests of package mcm_test.
var RandomConstraintGraph = randomConstraintGraph
