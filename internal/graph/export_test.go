package graph

// RingOfRegions exposes the synthetic graph generator to the external
// equivalence tests, which import the harness and so cannot live in this
// package.
var RingOfRegions = ringOfRegions
