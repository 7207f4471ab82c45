package a

import "testing"

func TestOnly(t *testing.T) {
	OnlyTests()
	_ = Fixture{N: 1}
}
