package a

import "testing"

func TestOnlyTests(t *testing.T) { OnlyTests() }

func TestTally(t *testing.T) {
	if tl := NewTally(1); tl.forTests != 0 {
		t.Fail()
	}
}
