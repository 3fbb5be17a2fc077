package analysis

import "testing"

// TestHotPathAllocGolden covers every allocation class hotpathalloc
// knows, the admitted self-append idiom, and both allow outcomes
// (reasoned allow suppresses; reasonless allow is itself diagnosed and
// suppresses nothing).
func TestHotPathAllocGolden(t *testing.T) {
	checkFixtures(t, "hotpath")
}

// TestElemStampGolden replays the PR 7 Synth bug class: raw hw.Op
// literals without an Elem stamp, raw EmitPacket inside a Process
// bracket, and Ctx emission outside the walker's SetElem bracket. The
// synthbug fixture's Buggy types are the regression; the Fixed types
// are the shipped fix.
func TestElemStampGolden(t *testing.T) {
	checkFixtures(t, "hw", "click", "synthbug")
}
