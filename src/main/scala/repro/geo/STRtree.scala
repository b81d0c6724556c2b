package repro.geo

import java.util.PriorityQueue
import scala.collection.mutable

/** Axis-aligned bounding box in planar metres. */
final case class MBR(minX: Double, minY: Double, maxX: Double, maxY: Double) extends Serializable {
  def union(o: MBR): MBR =
    MBR(math.min(minX, o.minX), math.min(minY, o.minY), math.max(maxX, o.maxX), math.max(maxY, o.maxY))
  /** Minimum distance from `p` to this box (0 if inside). */
  def minDist(p: XY): Double = {
    val dx = if (p.x < minX) minX - p.x else if (p.x > maxX) p.x - maxX else 0.0
    val dy = if (p.y < minY) minY - p.y else if (p.y > maxY) p.y - maxY else 0.0
    math.hypot(dx, dy)
  }
  def centerX: Double = (minX + maxX) / 2
  def centerY: Double = (minY + maxY) / 2
}

/** The `k` segments nearest to a point in ascending (distance, id) order,
  * with their point-to-segment distances in metres: the candidate set C_{p_i}
  * (paper Definition 8) and the distance every emission or proximity reads.
  */
final case class Candidates(ids: Array[Int], dists: Array[Double])

/** An STR-packed (Sort-Tile-Recursive, Leutenegger et al. [ICDE'97]) R-tree
  * over road segments, supporting exact top-k nearest-segment queries via
  * best-first branch-and-bound on MBR lower bounds.
  *
  * The paper indexes road segments with exactly this structure to obtain the
  * candidate set C_{p_i} (Definition 8).
  */
final class STRtree private (
    private val segments: Array[Segment],
    private val root: STRtree.Node,
) extends Serializable {

  /** The `k` segments nearest to `p` by perpendicular (point-to-segment)
    * distance, with those distances.
    */
  def nearest(p: XY, k: Int): Candidates = {
    if (segments.isEmpty || k <= 0) return Candidates(Array.emptyIntArray, Array.emptyDoubleArray)
    // Frontier of tree nodes keyed by optimistic lower-bound distance.
    val frontier = new PriorityQueue[(Double, STRtree.Node)](11,
      (a: (Double, STRtree.Node), b: (Double, STRtree.Node)) => java.lang.Double.compare(a._1, b._1))
    frontier.add((root.mbr.minDist(p), root))
    // Max-heap of current best k (distance, segId) so the worst is peekable.
    val best = new PriorityQueue[(Double, Int)](k,
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(b._1, a._1))
    while (!frontier.isEmpty) {
      val (lb, node) = frontier.poll()
      if (best.size == k && lb >= best.peek()._1) {
        frontier.clear() // nothing remaining can beat the current k-th
      } else node match {
        case STRtree.Leaf(_, entries) =>
          var i = 0
          while (i < entries.length) {
            val sid = entries(i)
            val s = segments(sid)
            val d = Geo.pointSegDist(p, s.a, s.b)
            if (best.size < k) best.add((d, sid))
            else if (d < best.peek()._1) { best.poll(); best.add((d, sid)) }
            i += 1
          }
        case STRtree.Branch(_, children) =>
          children.foreach { c =>
            val clb = c.mbr.minDist(p)
            if (best.size < k || clb < best.peek()._1) frontier.add((clb, c))
          }
      }
    }
    val out = mutable.ArrayBuffer.empty[(Double, Int)]
    while (!best.isEmpty) out += best.poll()
    val sorted = out.sortBy(e => (e._1, e._2))
    Candidates(sorted.map(_._2).toArray, sorted.map(_._1).toArray)
  }
}

object STRtree {
  private val Capacity = 16

  sealed trait Node extends Serializable { def mbr: MBR }
  final case class Leaf(mbr: MBR, entries: Array[Int]) extends Node
  final case class Branch(mbr: MBR, children: Array[Node]) extends Node

  private def segMbr(s: Segment): MBR =
    MBR(math.min(s.a.x, s.b.x), math.min(s.a.y, s.b.y), math.max(s.a.x, s.b.x), math.max(s.a.y, s.b.y))

  /** STR bulk load: sort by centre x, tile into vertical slices, sort each
    * slice by centre y, pack runs of `Capacity`; repeat one level up until a
    * single root remains.
    */
  def build(segments: Array[Segment]): STRtree = {
    require(segments.nonEmpty, "cannot build an R-tree over zero segments")
    val leaves: Array[Node] = pack(
      segments.map(s => (segMbr(s), s.id)),
      (mbr: MBR, ids: Array[Int]) => Leaf(mbr, ids),
    )
    var level: Array[Node] = leaves
    while (level.length > 1) {
      level = pack(
        level.map(n => (n.mbr, n)),
        (mbr: MBR, ns: Array[Node]) => Branch(mbr, ns),
      )
    }
    new STRtree(segments, level(0))
  }

  private def pack[E, N](entries: Array[(MBR, E)], mk: (MBR, Array[E]) => N)(implicit
      ct: scala.reflect.ClassTag[E], nt: scala.reflect.ClassTag[N]): Array[N] = {
    val n = entries.length
    val nNodes = math.ceil(n.toDouble / Capacity).toInt
    val nSlices = math.max(1, math.ceil(math.sqrt(nNodes.toDouble)).toInt)
    val perSlice = math.max(1, math.ceil(n.toDouble / nSlices).toInt) // entries per vertical slice
    val byX = entries.sortBy(_._1.centerX)
    val out = mutable.ArrayBuffer.empty[N]
    byX.grouped(perSlice).foreach { slice =>
      slice.sortBy(_._1.centerY).grouped(Capacity).foreach { grp =>
        val mbr = grp.map(_._1).reduce(_ union _)
        out += mk(mbr, grp.map(_._2).toArray)
      }
    }
    out.toArray
  }
}
