package repro.bufferpool

/** Global LRU and MRU as locality-set policies. Global LRU is LocalitySet-L
  * without rates: every cost is 0, so the oldest of the sets' LRU frames goes.
  * `Mru` is global MRU only over pages in one locality set.
  */
object Policies {
  val Lru: LocalitySetPolicy = LocalitySetPolicy(innerMru = false, sharingAware = false, Map.empty)
  val Mru: LocalitySetPolicy = LocalitySetPolicy(innerMru = true, sharingAware = false, Map.empty)
}
