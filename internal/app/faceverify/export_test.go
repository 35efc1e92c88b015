package faceverify

// Seedings returns how many times the DB has seeded its generator.
func (db *DB) Seedings() int { return db.seedings }

// Image returns identity id's database image (deterministic).
func (db *DB) Image(id int) []byte {
	img := make([]byte, ImgSize)
	db.imageInto(img, id)
	return img
}

// BatchFile returns the concatenated images of identities
// [first, first+batch), the unit stored per file.
func (db *DB) BatchFile(first, batch int) []byte {
	out := make([]byte, batch*ImgSize)
	db.batchInto(out, first)
	return out
}
