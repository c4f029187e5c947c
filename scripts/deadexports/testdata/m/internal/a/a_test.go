package a

import "testing"

func TestOnlyTests(t *testing.T) { OnlyTests() }
