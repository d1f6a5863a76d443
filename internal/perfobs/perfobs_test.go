package perfobs

import "testing"

func TestCollectMetaFillsRuntimeFields(t *testing.T) {
	m := CollectMeta()
	if m.GoVersion == "" || m.Host.OS == "" || m.Host.Arch == "" {
		t.Fatalf("runtime fields empty: %+v", m)
	}
	if m.Host.GOMAXPROCS <= 0 || m.Host.NumCPU <= 0 {
		t.Fatalf("cpu fields not positive: %+v", m.Host)
	}
	// Commit is either a hex hash (this repo is a checkout) or "unknown".
	if m.Commit != "unknown" && len(m.Commit) < 7 {
		t.Fatalf("odd commit %q", m.Commit)
	}
}
