package shard

// Test helpers shared with the external shard_test package, whose tests
// drive the coordinator through the engine.
var (
	TestParams   = testParams
	RenderReport = renderReport
)
