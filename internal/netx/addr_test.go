package netx

import (
	"testing"
	"testing/quick"
)

func TestParseMAC(t *testing.T) {
	m, err := ParseMAC("74:da:38:1b:20:01")
	if err != nil {
		t.Fatalf("ParseMAC: %v", err)
	}
	want := MAC{0x74, 0xda, 0x38, 0x1b, 0x20, 0x01}
	if m != want {
		t.Fatalf("got %v want %v", m, want)
	}
	if got := m.String(); got != "74:da:38:1b:20:01" {
		t.Fatalf("String() = %q", got)
	}
}

func TestParseMACUppercase(t *testing.T) {
	m, err := ParseMAC("74:DA:38:1B:20:FF")
	if err != nil {
		t.Fatalf("ParseMAC: %v", err)
	}
	if m[5] != 0xff {
		t.Fatalf("last byte = %x", m[5])
	}
}

func TestParseMACErrors(t *testing.T) {
	bad := []string{"", "74:da:38:1b:20", "74-da-38-1b-20-01", "74:da:38:1b:20:0g", "74:da:38:1b:20:011"}
	for _, s := range bad {
		if _, err := ParseMAC(s); err == nil {
			t.Errorf("ParseMAC(%q): expected error", s)
		}
	}
}

func TestMACRoundTripProperty(t *testing.T) {
	f := func(m MAC) bool {
		got, err := ParseMAC(m.String())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACPredicates(t *testing.T) {
	if !Broadcast.IsBroadcast() {
		t.Error("Broadcast.IsBroadcast() = false")
	}
	if !Broadcast.IsMulticast() {
		t.Error("broadcast should have group bit set")
	}
	m := mustMAC(t, "01:00:5e:00:00:fb")
	if !m.IsMulticast() {
		t.Error("multicast MAC not detected")
	}
	u := mustMAC(t, "74:da:38:1b:20:01")
	if u.IsMulticast() || u.IsBroadcast() {
		t.Error("unicast MAC misclassified")
	}
	if !(MAC{}).IsZero() {
		t.Error("zero MAC not detected")
	}
}

func TestMACOUI(t *testing.T) {
	m := mustMAC(t, "74:da:38:1b:20:01")
	if got := m.OUI(); got != 0x74da38 {
		t.Fatalf("OUI() = %06x, want 74da38", got)
	}
}

// mustMAC parses a MAC literal, failing the test on error.
func mustMAC(t testing.TB, s string) MAC {
	t.Helper()
	m, err := ParseMAC(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
