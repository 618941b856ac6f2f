package multiproc

// The reference copies of differential_test.go, exported to the external
// fuzz target in fuzz_test.go.
var (
	RefLTFRejectLS      = refLTFRejectLS
	RefExhaustive       = refExhaustive
	RefHeteroPartition  = refHeteroPartition
	RefHeteroLowerBound = refHeteroLowerBound
)
