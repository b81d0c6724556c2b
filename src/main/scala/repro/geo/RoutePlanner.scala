package repro.geo

import scala.collection.mutable

/** The "DA-based" route planner (paper ref [2]): route planning guided by
  * basic statistical counts of segment-to-segment transitions observed in
  * historical (training) routes.
  *
  * Planning from segment `from` to `to` is a least-cost search in the
  * segment graph with cost
  *
  *   cost(s -> s') = len(s') + beta * (-log P(s' | s))
  *
  * where P is the add-one-smoothed empirical transition probability. The
  * length term keeps routes geometrically sane on transitions never seen in
  * training; `beta` (metres per nat) trades statistics against geometry.
  *
  * Both our methods (MMA / TRMMA) and every baseline that needs a route-
  * planning subroutine use this same planner, mirroring the paper's
  * fair-comparison setup.
  */
final class RoutePlanner(
    net: RoadNetwork,
    counts: Map[Long, Int],
    outTotals: Map[Int, Int],
    beta: Double,
) extends Serializable {

  // The planning costs must stay at least each segment's length, as the
  // goal-directed segment search requires.
  require(beta >= 0, s"RoutePlanner: beta must be non-negative, got $beta")

  /** -log of smoothed P(next | cur). */
  def negLogProb(cur: Int, next: Int): Double = {
    val deg = math.max(1, net.nextSegments(cur).length)
    val c = counts.getOrElse(Geo.pairKey(cur, next), 0)
    val tot = outTotals.getOrElse(cur, 0)
    -math.log((c + 1.0) / (tot + deg.toDouble))
  }

  /** Planning cost of every segment-graph arc, aligned with
    * `net.nextSegments` and floored at 1e-9 so that every step costs
    * something.
    */
  private val arcCost: Array[Array[Double]] = Array.tabulate(net.numSegments) { cur =>
    net.nextSegments(cur).map(next =>
      math.max(1e-9, net.segments(next).lengthM + beta * negLogProb(cur, next)))
  }

  /** Segments connecting `from` to `to`, excluding `from`, including `to`;
    * Nil when `from == to`. When `to` is unreachable from `from` the route
    * jumps straight to `to`, which cannot happen on a strongly connected
    * network.
    */
  def plan(from: Int, to: Int): List[Int] =
    ShortestPath.segmentSearch(net, from, to, arcCost).getOrElse(List(to))

  /** Stitch per-point matched segments into a route: consecutive duplicate
    * segments collapse; gaps are filled by `plan`. (Algorithm 1, lines 10-13.)
    * No segment repeats consecutively in the result: a planned path steps
    * from each segment to one of its `nextSegments`, which never include it
    * (segments join distinct nodes), and the `List(to)` jump has `to != from`.
    */
  def stitch(matched: Seq[Int]): List[Int] = {
    if (matched.isEmpty) return Nil
    val out = mutable.ListBuffer[Int](matched.head)
    matched.sliding(2).foreach {
      case Seq(a, b) if a != b => out ++= plan(a, b)
      case _                   => ()
    }
    out.toList
  }
}

object RoutePlanner {

  /** Fit transition counts from historical routes (sequences of segment
    * ids); `beta` is 30 metres per nat.
    */
  def fit(net: RoadNetwork, routes: Iterable[Seq[Int]]): RoutePlanner = {
    val counts = mutable.HashMap.empty[Long, Int]
    val totals = mutable.HashMap.empty[Int, Int]
    routes.foreach { r =>
      r.sliding(2).foreach {
        case Seq(a, b) if a != b =>
          val k = Geo.pairKey(a, b)
          counts(k) = counts.getOrElse(k, 0) + 1
          totals(a) = totals.getOrElse(a, 0) + 1
        case _ => ()
      }
    }
    new RoutePlanner(net, counts.toMap, totals.toMap, beta = 30.0)
  }
}
