package faceverify

// Seedings returns how many times the DB has seeded its generator.
func (db *DB) Seedings() int { return db.seedings }
