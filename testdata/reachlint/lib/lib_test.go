package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	if c.TestRead != 0 {
		t.Fatal("TestRead")
	}
}
