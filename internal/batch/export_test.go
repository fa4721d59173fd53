package batch

// IdentityLayout reports whether d stores every canonical edge e at
// word slot e — the indexed layout a graph without a circulant table
// gets. Exported for the external layout A/B tests.
func IdentityLayout(d *Parallel) bool {
	tw := d.st.tw
	for e, off := range d.st.cnOff {
		if int(off) != e*tw {
			return false
		}
	}
	return true
}
