// Package baseline is the analytic comparison model behind Table IV of the
// paper: for each competing revocation scheme (§II), the storage and
// connection counts required so that an arbitrary client can establish a
// secure connection with an arbitrary server, plus the desired properties
// the scheme violates.
//
// Symbols (Table IV caption): n_s servers, n_ca CAs, n_ra RAs, n_cl
// clients, n_rev revocations, with n_ca ≪ n_ra < n_s ≪ n_cl.
package baseline

import "fmt"

// Property is one of the desired properties of §II.
type Property int

// Desired properties, with the letters Table IV uses.
const (
	// PropInstant is I: near-instant revocation.
	PropInstant Property = iota + 1
	// PropPrivacy is P: no third party learns client browsing.
	PropPrivacy
	// PropEfficiency is E: efficiency and scalability.
	PropEfficiency
	// PropTransparency is T: transparency and accountability.
	PropTransparency
	// PropServerChanges is S: server changes not required.
	PropServerChanges
)

// Letter returns the Table IV symbol.
func (p Property) Letter() string {
	switch p {
	case PropInstant:
		return "I"
	case PropPrivacy:
		return "P"
	case PropEfficiency:
		return "E"
	case PropTransparency:
		return "T"
	case PropServerChanges:
		return "S"
	default:
		return "?"
	}
}

// String names the property.
func (p Property) String() string {
	switch p {
	case PropInstant:
		return "near-instant revocation"
	case PropPrivacy:
		return "privacy"
	case PropEfficiency:
		return "efficiency and scalability"
	case PropTransparency:
		return "transparency and accountability"
	case PropServerChanges:
		return "server changes not required"
	default:
		return fmt.Sprintf("Property(%d)", int(p))
	}
}

// Params instantiates the Table IV symbols.
type Params struct {
	Servers     float64 // n_s
	CAs         float64 // n_ca
	RAs         float64 // n_ra
	Clients     float64 // n_cl
	Revocations float64 // n_rev
}

// PaperParams returns the magnitudes used throughout the evaluation: the
// measured dataset's revocations and CA count, and a client/server/RA
// population consistent with §VII-C (10 clients per RA, 230 M RAs).
func PaperParams() Params {
	return Params{
		Servers:     1e8,       // ~100 M TLS servers
		CAs:         254,       // the dataset's CRL issuer count
		RAs:         2.3e8 / 1, // 230 M RAs at 10 clients each — see §VII-C
		Clients:     2.3e9,     // 2.3 B clients (MaxMind population, §VII-C)
		Revocations: 1_381_992, // dataset total (§VII-A)
	}
}

// Scheme is one Table IV row.
type Scheme struct {
	// Name as printed in Table IV.
	Name string
	// Footnote carries the table's qualifier (e.g. CRLSet truncation).
	Footnote string
	// StorageGlobal is total revocation-entry replication system-wide.
	StorageGlobal func(Params) float64
	// StorageClient is revocation entries stored per client.
	StorageClient func(Params) float64
	// ConnGlobal is total dedicated revocation connections system-wide.
	ConnGlobal func(Params) float64
	// ConnClient is dedicated revocation connections per client.
	ConnClient func(Params) float64
	// Violated lists the §II properties the scheme fails.
	Violated []Property
}

// ViolatedLetters renders the violated properties as Table IV does
// (e.g. "I, P, E, T"), with "-" for none.
func (s Scheme) ViolatedLetters() string {
	if len(s.Violated) == 0 {
		return "-"
	}
	out := ""
	for i, p := range s.Violated {
		if i > 0 {
			out += ", "
		}
		out += p.Letter()
	}
	return out
}

// Schemes returns every Table IV row, in the paper's order. The formulas
// are transcribed exactly; tests assert them symbolically.
func Schemes() []Scheme {
	return []Scheme{
		{
			Name: "CRL",
			// Every client stores the full list, plus the CA's copy.
			StorageGlobal: func(p Params) float64 { return p.Revocations * (p.Clients + 1) },
			StorageClient: func(p Params) float64 { return p.Revocations },
			ConnGlobal:    func(p Params) float64 { return p.Clients * p.CAs },
			ConnClient:    func(p Params) float64 { return p.CAs },
			Violated:      []Property{PropInstant, PropPrivacy, PropEfficiency, PropTransparency},
		},
		{
			Name:          "CRLSet",
			Footnote:      "CRLSets contain a limited number of revocations",
			StorageGlobal: func(p Params) float64 { return p.Revocations * (p.Clients + 1) },
			StorageClient: func(p Params) float64 { return p.Revocations },
			ConnGlobal:    func(p Params) float64 { return p.Clients },
			ConnClient:    func(p Params) float64 { return 1 },
			Violated:      []Property{PropInstant, PropEfficiency, PropTransparency},
		},
		{
			Name:          "OCSP",
			StorageGlobal: func(p Params) float64 { return p.Revocations },
			StorageClient: func(p Params) float64 { return 0 },
			ConnGlobal:    func(p Params) float64 { return p.Clients * p.Servers },
			ConnClient:    func(p Params) float64 { return p.Servers },
			Violated:      []Property{PropInstant, PropPrivacy, PropEfficiency, PropTransparency},
		},
		{
			Name:          "OCSP Stapling",
			Footnote:      "OCSP Stapling",
			StorageGlobal: func(p Params) float64 { return p.Revocations + p.Servers },
			StorageClient: func(p Params) float64 { return 0 },
			ConnGlobal:    func(p Params) float64 { return p.Servers },
			ConnClient:    func(p Params) float64 { return 0 },
			Violated:      []Property{PropInstant, PropServerChanges, PropTransparency},
		},
		{
			Name:          "Log (client-driven)",
			Footnote:      "Client-driven approaches",
			StorageGlobal: func(p Params) float64 { return p.Revocations },
			StorageClient: func(p Params) float64 { return 0 },
			ConnGlobal:    func(p Params) float64 { return p.Clients * p.Servers },
			ConnClient:    func(p Params) float64 { return p.Servers },
			Violated:      []Property{PropInstant, PropPrivacy, PropEfficiency},
		},
		{
			Name:          "Log (server-driven)",
			Footnote:      "Server-driven approaches",
			StorageGlobal: func(p Params) float64 { return p.Revocations },
			StorageClient: func(p Params) float64 { return 0 },
			ConnGlobal:    func(p Params) float64 { return p.Servers },
			ConnClient:    func(p Params) float64 { return 0 },
			Violated:      []Property{PropInstant, PropServerChanges},
		},
		{
			Name:          "RevCast",
			Footnote:      "RevCast uses radio broadcast for dissemination",
			StorageGlobal: func(p Params) float64 { return p.Revocations * (p.Clients + 1) },
			StorageClient: func(p Params) float64 { return p.Revocations },
			ConnGlobal:    func(p Params) float64 { return p.Clients },
			ConnClient:    func(p Params) float64 { return p.Revocations }, // broadcast receipts
			Violated:      []Property{PropEfficiency, PropTransparency},
		},
		{
			Name:          "RITM",
			StorageGlobal: func(p Params) float64 { return p.Revocations * (p.RAs + 1) },
			StorageClient: func(p Params) float64 { return 0 },
			ConnGlobal:    func(p Params) float64 { return p.CAs },
			ConnClient:    func(p Params) float64 { return 0 },
			Violated:      nil,
		},
	}
}
