package repro.geo

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
  *
  * Nodes are numbered; node `v` has bounding box `mbrs(v)` and, in packing
  * order, the segment ids of a leaf or the child nodes of a branch in
  * `items(v)`.
  */
final class STRtree private (
    private val segments: Array[Segment],
    private val mbrs: Array[MBR],
    private val leaf: Array[Boolean],
    private val items: Array[Array[Int]],
    private val root: Int,
) extends Serializable {

  /** The `k` segments nearest to `p` by perpendicular (point-to-segment)
    * distance, with those distances, ordered by `Double.compare` on the
    * distance and then by id.
    */
  def nearest(p: XY, k: Int): Candidates = {
    if (segments.isEmpty || k <= 0) return Candidates(Array.emptyIntArray, Array.emptyDoubleArray)
    // Frontier of tree nodes keyed by optimistic lower-bound distance.
    val frontier = new Heap
    frontier.add(mbrs(root).minDist(p), root)
    // Max-heap of current best k (distance, segId) so the worst is peekable.
    val best = new Heap(descending = true)
    while (!frontier.isEmpty) {
      val lb = frontier.peekKey
      val node = frontier.poll()
      if (best.size == k && lb >= best.peekKey) {
        frontier.clear() // nothing remaining can beat the current k-th
      } else if (leaf(node)) {
        val entries = items(node)
        var i = 0
        while (i < entries.length) {
          val sid = entries(i)
          val s = segments(sid)
          val d = Geo.pointSegDist(p, s.a, s.b)
          if (best.size < k) best.add(d, sid)
          else if (d < best.peekKey) { best.poll(); best.add(d, sid) }
          i += 1
        }
      } else {
        val children = items(node)
        var i = 0
        while (i < children.length) {
          val c = children(i)
          val clb = mbrs(c).minDist(p)
          if (best.size < k || clb < best.peekKey) frontier.add(clb, c)
          i += 1
        }
      }
    }
    // `best` leaves farthest first; equal distances then go in id order.
    val m = best.size
    val ids = new Array[Int](m)
    val dists = new Array[Double](m)
    var i = m - 1
    while (i >= 0) { dists(i) = best.peekKey; ids(i) = best.poll(); i -= 1 }
    i = 1
    while (i < m) {
      val d = dists(i); val id = ids(i)
      var j = i - 1
      while (j >= 0 && java.lang.Double.compare(dists(j), d) == 0 && ids(j) > id) {
        dists(j + 1) = dists(j); ids(j + 1) = ids(j); j -= 1
      }
      dists(j + 1) = d; ids(j + 1) = id
      i += 1
    }
    Candidates(ids, dists)
  }
}

object STRtree {
  private val Capacity = 16

  private def segMbr(s: Segment): MBR =
    MBR(math.min(s.a.x, s.b.x), math.min(s.a.y, s.b.y), math.max(s.a.x, s.b.x), math.max(s.a.y, s.b.y))

  /** STR bulk load: sort by centre x, tile into vertical slices, sort each
    * slice by centre y, pack runs of `Capacity`; repeat one level up until a
    * single root remains.
    */
  def build(segments: Array[Segment]): STRtree = {
    require(segments.nonEmpty, "cannot build an R-tree over zero segments")
    val mbrs = mutable.ArrayBuffer.empty[MBR]
    val leaf = mutable.ArrayBuffer.empty[Boolean]
    val items = mutable.ArrayBuffer.empty[Array[Int]]
    def level(entries: Array[(MBR, Int)], leaves: Boolean): Array[(MBR, Int)] =
      pack(entries).map { case (mbr, its) =>
        mbrs += mbr; leaf += leaves; items += its
        (mbr, mbrs.length - 1)
      }
    var nodes = level(segments.map(s => (segMbr(s), s.id)), leaves = true)
    while (nodes.length > 1) nodes = level(nodes, leaves = false)
    new STRtree(segments, mbrs.toArray, leaf.toArray, items.toArray, nodes(0)._2)
  }

  /** Groups of at most `Capacity` entries, with each group's bounding box. */
  private def pack(entries: Array[(MBR, Int)]): Array[(MBR, Array[Int])] = {
    val n = entries.length
    val nNodes = math.ceil(n.toDouble / Capacity).toInt
    val nSlices = math.max(1, math.ceil(math.sqrt(nNodes.toDouble)).toInt)
    val perSlice = math.max(1, math.ceil(n.toDouble / nSlices).toInt) // entries per vertical slice
    val byX = entries.sortBy(_._1.centerX)
    val out = mutable.ArrayBuffer.empty[(MBR, Array[Int])]
    byX.grouped(perSlice).foreach { slice =>
      slice.sortBy(_._1.centerY).grouped(Capacity).foreach { grp =>
        out += ((grp.map(_._1).reduce(_ union _), grp.map(_._2)))
      }
    }
    out.toArray
  }
}
