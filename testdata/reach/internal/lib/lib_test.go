package lib

import "testing"

func TestFixture(t *testing.T) {
	var h Handle = NewPoint()
	if h.String() == "" || Fixture() != 2 {
		t.Fatal("fixture broken")
	}
}
