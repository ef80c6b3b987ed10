package baseline

import "testing"

func TestTableIVFormulas(t *testing.T) {
	p := Params{Servers: 10, CAs: 3, RAs: 5, Clients: 100, Revocations: 1000}
	rows := map[string]Scheme{}
	for _, s := range Schemes() {
		rows[s.Name] = s
	}
	if len(rows) != 8 {
		t.Fatalf("Schemes() returned %d rows, want 8", len(rows))
	}

	tests := []struct {
		scheme  string
		metric  string
		get     func(Scheme) float64
		want    float64
		checked string
	}{
		{"CRL", "storage-global", func(s Scheme) float64 { return s.StorageGlobal(p) }, 1000 * 101, "n_rev×(n_cl+1)"},
		{"CRL", "storage-client", func(s Scheme) float64 { return s.StorageClient(p) }, 1000, "n_rev"},
		{"CRL", "conn-global", func(s Scheme) float64 { return s.ConnGlobal(p) }, 100 * 3, "n_cl×n_ca"},
		{"CRL", "conn-client", func(s Scheme) float64 { return s.ConnClient(p) }, 3, "n_ca"},
		{"CRLSet", "conn-client", func(s Scheme) float64 { return s.ConnClient(p) }, 1, "1"},
		{"OCSP", "storage-global", func(s Scheme) float64 { return s.StorageGlobal(p) }, 1000, "n_rev"},
		{"OCSP", "conn-global", func(s Scheme) float64 { return s.ConnGlobal(p) }, 100 * 10, "n_cl×n_s"},
		{"OCSP Stapling", "storage-global", func(s Scheme) float64 { return s.StorageGlobal(p) }, 1010, "n_rev+n_s"},
		{"OCSP Stapling", "conn-global", func(s Scheme) float64 { return s.ConnGlobal(p) }, 10, "n_s"},
		{"OCSP Stapling", "conn-client", func(s Scheme) float64 { return s.ConnClient(p) }, 0, "0"},
		{"Log (client-driven)", "conn-client", func(s Scheme) float64 { return s.ConnClient(p) }, 10, "n_s"},
		{"Log (server-driven)", "conn-global", func(s Scheme) float64 { return s.ConnGlobal(p) }, 10, "n_s"},
		{"RevCast", "storage-client", func(s Scheme) float64 { return s.StorageClient(p) }, 1000, "n_rev"},
		{"RITM", "storage-global", func(s Scheme) float64 { return s.StorageGlobal(p) }, 1000 * 6, "n_rev×(n_ra+1)"},
		{"RITM", "storage-client", func(s Scheme) float64 { return s.StorageClient(p) }, 0, "0"},
		{"RITM", "conn-global", func(s Scheme) float64 { return s.ConnGlobal(p) }, 3, "n_ca"},
		{"RITM", "conn-client", func(s Scheme) float64 { return s.ConnClient(p) }, 0, "0"},
	}
	for _, tt := range tests {
		s, ok := rows[tt.scheme]
		if !ok {
			t.Fatalf("scheme %q missing", tt.scheme)
		}
		if got := tt.get(s); got != tt.want {
			t.Errorf("%s %s = %g, want %g (%s)", tt.scheme, tt.metric, got, tt.want, tt.checked)
		}
	}
}

func TestTableIVProperties(t *testing.T) {
	want := map[string]string{
		"CRL":                 "I, P, E, T",
		"CRLSet":              "I, E, T",
		"OCSP":                "I, P, E, T",
		"OCSP Stapling":       "I, S, T",
		"Log (client-driven)": "I, P, E",
		"Log (server-driven)": "I, S",
		"RevCast":             "E, T",
		"RITM":                "-",
	}
	for _, s := range Schemes() {
		if got := s.ViolatedLetters(); got != want[s.Name] {
			t.Errorf("%s violated = %q, want %q", s.Name, got, want[s.Name])
		}
	}
}
