package repro.recovery

import repro.geo.XY
import repro.mm.MapMatcher
import repro.traj.{GpsPoint, MatchedRoute, Recovered, Traj}

/** A trajectory-recovery method: from the sparse observed points of `t`,
  * produce the map-matched epsilon-sampling trajectory (paper Definition 7).
  * The output is index-aligned with `t.dense` (timestamps are shared), so
  * metrics compare position i to position i.
  */
trait Recoverer extends Serializable {
  def name: String
  def recover(t: Traj): Recovered
}

/** A recoverer that works along a map matcher's output (Algorithm 2 takes
  * MMA's route as its input): TRMMA and Linear. `recover(t, mr)` reads
  * only the given `mr`, so one pass of `matcher` over a test set can feed
  * every recoverer built on it.
  */
trait RouteRecoverer extends Recoverer {
  def matcher: MapMatcher

  /** Recover `t` along `mr`, `matcher`'s output for `t` or its equal. */
  def recover(t: Traj, mr: MatchedRoute): Recovered

  final def recover(t: Traj): Recovered = recover(t, matcher.matchTraj(t))
}

/** The gaps of a dense epsilon-timeline of `length` slots: sparse point i
  * is observed at slot `slotOf(i)` (increasing, the first at slot 0), and
  * the slots between two sparse points are their gap's missing slots.
  */
class SlotGaps(val slotOf: Array[Int], val length: Int) {
  /** The gaps of a timeline whose observed slots are `observed`'s true entries. */
  def this(observed: Array[Boolean]) = this(Array.range(0, observed.length).filter(observed), observed.length)

  /** The sparse point at or before each slot: the left end of its gap. */
  val anchor: Array[Int] = {
    val a = new Array[Int](length)
    var i = 0
    while (i < slotOf.length) {
      java.util.Arrays.fill(a, slotOf(i), if (i + 1 < slotOf.length) slotOf(i + 1) else length, i)
      i += 1
    }
    a
  }

  def observed(j: Int): Boolean = slotOf(anchor(j)) == j

  /** The observed slot at or before slot j. */
  def lo(j: Int): Int = slotOf(anchor(j))

  /** The observed slot after `lo(j)` (`lo(j)` itself after the last point). */
  def hi(j: Int): Int = slotOf(math.min(anchor(j) + 1, slotOf.length - 1))

  /** Where slot j falls in its gap: 0 at `lo(j)`, 1 at `hi(j)`. */
  def gapFrac(j: Int): Double = {
    val l = lo(j); val h = hi(j)
    if (h == l) 0.0 else (j - l).toDouble / (h - l)
  }
}

/** The dense epsilon-timeline a recoverer fills (paper Definitions 6-7):
  * the gaps between the points of `sparse`, in steps of `epsilon`.
  */
final class SlotTimeline(sparse: Array[GpsPoint], slotOf: Array[Int], epsilon: Double)
    extends SlotGaps(slotOf, if (slotOf.isEmpty) 0 else slotOf.last + 1) {

  /** Slot j's timestamp: its sparse point's, or its gap's start plus whole steps. */
  val times: Array[Double] = Array.tabulate(length) { j =>
    val p = sparse(anchor(j))
    if (observed(j)) p.t else p.t + (j - lo(j)) * epsilon
  }

  /** The last sparse point before slot j's time (the first if none): a
    * missing slot's anchor, and the predecessor of an observed slot's point.
    * Slot j's time lies between it and its successor.
    */
  def before(j: Int): Int = if (observed(j)) math.max(0, anchor(j) - 1) else anchor(j)

  private def after(j: Int): Int = math.min(before(j) + 1, sparse.length - 1)

  /** Free-space position at slot j's time, linearly interpolated between
    * the sparse points bracketing it.
    */
  def interpXY(j: Int): XY = {
    val a = sparse(before(j)); val b = sparse(after(j))
    val f = if (b.t - a.t < 1e-9) 0.0 else (times(j) - a.t) / (b.t - a.t)
    XY(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)
  }

  /** Travel direction between the sparse points bracketing slot j. */
  def direction(j: Int): XY = sparse(after(j)).xy - sparse(before(j)).xy
}

object Recoverer {
  /** Number of missing points between consecutive observed timestamps at
    * target rate `epsilon` (Algorithm 2 line 9, with exact-multiple
    * timestamps this is the true gap size).
    */
  def gapCount(tPrev: Double, tNext: Double, epsilon: Double): Int =
    math.max(0, math.round((tNext - tPrev) / epsilon).toInt - 1)

  /** The timeline from observable timestamps only: every sparse point `p`,
    * then `gapCount` missing slots at `p.t + g * epsilon`. The sparse
    * timestamps must strictly increase; every missing slot then lies
    * strictly inside its gap.
    */
  def slotTimeline(t: Traj, epsilon: Double): SlotTimeline = {
    val slotOf = new Array[Int](t.sparse.length)
    for (i <- 1 until slotOf.length) {
      val a = t.sparse(i - 1).t; val b = t.sparse(i).t
      require(b > a, s"trajectory ${t.id}: sparse timestamps must strictly increase, point $i has $b after $a")
      slotOf(i) = slotOf(i - 1) + 1 + gapCount(a, b, epsilon)
    }
    new SlotTimeline(t.sparse, slotOf, epsilon)
  }
}
