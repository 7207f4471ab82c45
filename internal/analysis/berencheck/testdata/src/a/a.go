package a

import (
	"asn1ber"
	"core"
	"snmp"
)

func bad(r *asn1ber.Reader, c *snmp.Client) {
	r.ReadTLV()                   // want `error returned by asn1ber\.ReadTLV is discarded`
	_, _, _ = r.ReadTLV()         // want `error returned by asn1ber\.ReadTLV is assigned to _`
	v, _ := asn1ber.ParseInt(nil) // want `error returned by asn1ber\.ParseInt is assigned to _`
	_ = v
	snmp.Decode(nil)      // want `error returned by snmp\.Decode is discarded`
	vbs, _ := c.Walk("h") // want `error returned by snmp\.Walk is assigned to _`
	_ = vbs
	defer snmp.Decode(nil) // want `error returned by snmp\.Decode is discarded`
}

func good(r *asn1ber.Reader, c *snmp.Client, db *core.Database) error {
	if _, _, err := r.ReadTLV(); err != nil {
		return err
	}
	m, err := snmp.Decode(nil)
	_ = m
	if err != nil {
		return err
	}
	if vbs, err := c.Walk("h"); err == nil {
		_ = vbs
	}
	_ = db.Summarize()                // no error result: fine
	_ = asn1ber.AppendInt(nil, 2, 7)  // no error result: fine
	_ = (*snmp.Message)(nil).Encode() // no error result: fine
	db.FlushResults()                 // not a codec package: fine
	//lint:allow droperr best-effort probe
	snmp.Decode(nil)
	snmp.Decode(nil) //lint:allow droperr same-line form
	_, err = snmp.Decode(nil)
	return err
}
